package exp

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the journal line decoder. It
// must never panic, and a line that decodes must re-encode to a record
// that decodes and re-encodes to the same bytes: what Store.Put appends,
// a reload reads back unchanged.
func FuzzDecodeRecord(f *testing.F) {
	data, err := os.ReadFile("testdata/journal_all_kinds.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		key, val, err := decodeRecord(line)
		if err != nil {
			return
		}
		enc, err := encodeRecord(key, val)
		if err != nil {
			t.Fatalf("decoded record %q does not re-encode: %v", key, err)
		}
		key2, val2, err := decodeRecord(bytes.TrimSuffix(enc, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		enc2, err := encodeRecord(key2, val2)
		if err != nil {
			t.Fatalf("second re-encode of %q: %v", key2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%s%s", enc, enc2)
		}
	})
}
