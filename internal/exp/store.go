package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// StoreJournalName is the journal file a Store keeps under its directory.
const StoreJournalName = "results.jsonl"

// resultKinds maps each spec key's kind prefix (the text before its
// first '|') to the zero value of the result type its cells return. A
// journal line is {"key":K,"<kind>":{...}}: the kind names the field that
// holds the result, so the key alone says how to decode the line.
var resultKinds = map[string]cellResult{
	"run":      Result{},
	"confsync": ConfSyncResult{},
	"hybrid":   HybridResult{},
	"scale":    ScaleResult{},
	"tenants":  TenantsResult{},
	"adapt":    AdaptResult{},
	"recover":  RecoverResult{},
	"compact":  CompactResult{},
}

// keyKind returns the kind prefix of a canonical spec key.
func keyKind(key string) string {
	kind, _, _ := strings.Cut(key, "|")
	return kind
}

// encodeRecord renders one newline-terminated journal line. It refuses a
// value whose type is not the one the key's kind stores.
func encodeRecord(key string, val any) ([]byte, error) {
	kind := keyKind(key)
	proto, ok := resultKinds[kind]
	if !ok || reflect.TypeOf(val) != reflect.TypeOf(proto) {
		return nil, fmt.Errorf("exp: store: unstorable cell result %T for %q", val, key)
	}
	k, _ := json.Marshal(key) // a string always marshals
	v, err := json.Marshal(val)
	if err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	return []byte(fmt.Sprintf(`{"key":%s,%q:%s}`+"\n", k, kind, v)), nil
}

// decodeRecord parses one journal line back into its key and result.
func decodeRecord(line []byte) (string, cellResult, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return "", nil, err
	}
	var key string
	if err := json.Unmarshal(fields["key"], &key); err != nil {
		return "", nil, fmt.Errorf("record key: %w", err)
	}
	kind := keyKind(key)
	proto, ok := resultKinds[kind]
	raw, has := fields[kind]
	if !ok || !has {
		return "", nil, fmt.Errorf("record %q carries no %q result", key, kind)
	}
	ptr := reflect.New(reflect.TypeOf(proto))
	if err := json.Unmarshal(raw, ptr.Interface()); err != nil {
		return "", nil, fmt.Errorf("record %q: %w", key, err)
	}
	return key, ptr.Elem().Interface().(cellResult), nil
}

// Store is a persistent result store for experiment cells: an append-only
// JSONL journal keyed by canonical spec keys. The Runner consults it
// before executing a cell and appends every fresh success, so a killed
// sweep resumes where it died instead of recomputing finished cells.
//
// Crash safety: records are fsynced as they are appended, and reload
// tolerates a torn final record (the signature of a crash mid-append) by
// ignoring it and cutting it off the file. Corruption anywhere else is
// reported as an error. When the
// same key appears more than once, the last intact record wins.
//
// A Store is safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	f   *os.File
	idx map[string]cellResult
}

// OpenStore opens (creating as needed) the journal under dir and loads
// every intact record into the lookup index. A torn final record is cut
// off the file, so the next append starts on a fresh line.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	path := filepath.Join(dir, StoreJournalName)
	idx, intact, err := loadJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	return &Store{f: f, idx: idx}, nil
}

// loadJournal reads a journal into a key index and reports the length of
// its intact prefix. Every record Put writes ends in a newline, so bytes
// after the last newline are a record torn by a crash mid-append; they
// are ignored. Corruption in a newline-terminated line is an error.
func loadJournal(path string) (map[string]cellResult, int64, error) {
	idx := make(map[string]cellResult)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return idx, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("exp: store: %w", err)
	}
	intact := bytes.LastIndexByte(data, '\n') + 1
	for i, line := range bytes.Split(data[:intact], []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		key, val, err := decodeRecord(line)
		if err != nil {
			return nil, 0, fmt.Errorf("exp: store: journal %s corrupt at line %d: %w", path, i+1, err)
		}
		idx[key] = val
	}
	return idx, int64(intact), nil
}

// Len reports the number of distinct keys in the index.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.idx)
}

// Get returns the stored result for a canonical spec key.
func (st *Store) Get(key string) (any, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.idx[key]
	return v, ok
}

// Put appends one successful cell result to the journal (fsynced) and
// indexes it. The value must be the result type of the key's kind (see
// resultKinds); failures are never persisted — a resumed sweep
// re-attempts them.
func (st *Store) Put(key string, val any) error {
	line, err := encodeRecord(key, val)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(line); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	st.idx[key] = val.(cellResult)
	return nil
}

// Close releases the journal file handle. The index stays readable.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}

// Compact rewrites the journal to one record per live key (last wins), in
// key order, dropping superseded duplicates, then atomically replaces the
// old journal. Useful after many resumed sweeps over one cache directory;
// two compactions of the same index write the same bytes.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	path := st.f.Name()
	tmp, err := os.CreateTemp(filepath.Dir(path), "results-*.jsonl")
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	defer os.Remove(tmp.Name())
	keys := make([]string, 0, len(st.idx))
	for key := range st.idx {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	w := bufio.NewWriter(tmp)
	for _, key := range keys {
		line, err := encodeRecord(key, st.idx[key])
		if err != nil {
			tmp.Close()
			return err
		}
		_, _ = w.Write(line) // a write error sticks and surfaces from Flush
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	st.f = f
	return nil
}
