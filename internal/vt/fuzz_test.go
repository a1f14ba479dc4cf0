package vt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dynprof/internal/des"
)

// FuzzReadTrace feeds arbitrary text to the textual trace parser. It must
// never panic, and a trace that parses must write back through WriteTrace
// and re-read to the same merged events and function tables.
func FuzzReadTrace(f *testing.F) {
	c, col := newTestCtx(nil)
	main, solve := c.FuncDef("main"), c.FuncDef("smg solve")
	ec := &fakeEC{tid: 1}
	for i, id := range []int32{main, solve, solve, main} {
		ec.now = des.Time(i+1) * des.Microsecond
		if i < 2 {
			c.Begin(ec, id)
		} else {
			c.End(ec, id)
		}
	}
	c.Flush()
	col.Append([]Event{{At: 500, Rank: 1, Kind: MsgSend, A: 0, B: 64}})
	var dump bytes.Buffer
	if err := col.WriteTrace(&dump); err != nil {
		f.Fatal(err)
	}
	col.Release()
	f.Add(dump.String())
	for _, bad := range []string{
		"BOGUS 1 2 3",
		"EVT 1 2 3",
		"EVT x 0 0 enter 0 0 0",
		"EVT 1 0 0 notakind 0 0 0",
		"FUNC 1 2",
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		col, err := ReadTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		defer col.Release()
		var out bytes.Buffer
		if err := col.WriteTrace(&out); err != nil {
			t.Fatalf("parsed trace does not write back: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("written trace does not re-read: %v\n%s", err, out.Bytes())
		}
		defer back.Release()
		if a, b := col.Events(), back.Events(); !reflect.DeepEqual(a, b) {
			t.Fatalf("events diverge after write/re-read:\n%v\n%v", a, b)
		}
		if !reflect.DeepEqual(col.funcs, back.funcs) {
			t.Fatalf("function tables diverge after write/re-read:\n%v\n%v", col.funcs, back.funcs)
		}
	})
}

// FuzzParseConfig feeds arbitrary text to the VT configuration parser. It
// must never panic, and a configuration that parses holds at most one
// rule per directive line.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"# comment\nSYMBOL * OFF\nSYMBOL smg_* ON\nSYMBOL main OFF\n",
		"SYMBOL a ON\nSYMBOL a OFF\nsymbol b on\n",
		"SYMBOL foo MAYBE",
		"SYMBOL",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseConfig(strings.NewReader(text))
		if err != nil {
			return
		}
		directives := 0
		for _, line := range strings.Split(text, "\n") {
			if l := strings.TrimSpace(line); l != "" && !strings.HasPrefix(l, "#") {
				directives++
			}
		}
		if cfg.Rules() > directives {
			t.Fatalf("%d rules from %d directive lines", cfg.Rules(), directives)
		}
	})
}
