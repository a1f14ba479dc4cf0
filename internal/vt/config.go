package vt

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Config is a parsed VT configuration file: an ordered list of symbol
// activation rules. Later rules override earlier ones; patterns are either
// exact names or a prefix followed by "*".
//
// Syntax (one directive per line, '#' comments):
//
//	SYMBOL <pattern> ON|OFF
type Config struct {
	rules []rule
}

type rule struct {
	pattern string
	active  bool
}

// ParseConfig reads a VT configuration file.
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || !strings.EqualFold(fields[0], "SYMBOL") {
			return nil, fmt.Errorf("vt: config line %d: want \"SYMBOL <pattern> ON|OFF\", got %q", line, text)
		}
		var active bool
		switch strings.ToUpper(fields[2]) {
		case "ON":
			active = true
		case "OFF":
			active = false
		default:
			return nil, fmt.Errorf("vt: config line %d: state %q is not ON or OFF", line, fields[2])
		}
		cfg.Set(fields[1], active)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// MustParseConfig parses a config from a string, panicking on error; a
// convenience for tests and experiment definitions.
func MustParseConfig(text string) *Config {
	cfg, err := ParseConfig(strings.NewReader(text))
	if err != nil {
		panic(err)
	}
	return cfg
}

// Set appends a rule, as a runtime reconfiguration would. An earlier rule
// with the identical pattern matches exactly the names the new one does,
// so the new one shadows it everywhere; it is removed first, keeping the
// rule list bounded by the number of distinct patterns however many
// reconfigurations arrive.
func (cfg *Config) Set(pattern string, active bool) {
	if i := slices.IndexFunc(cfg.rules, func(r rule) bool { return r.pattern == pattern }); i >= 0 {
		cfg.rules = slices.Delete(cfg.rules, i, i+1)
	}
	cfg.rules = append(cfg.rules, rule{pattern: pattern, active: active})
}

// Active reports whether the symbol is active under the configuration.
// Symbols with no matching rule default to active (instrumentation that
// was inserted is live unless deactivated).
func (cfg *Config) Active(name string) bool {
	active := true
	if cfg == nil {
		return active
	}
	for _, r := range cfg.rules {
		if matchPattern(r.pattern, name) {
			active = r.active
		}
	}
	return active
}

// Rules reports the number of rules, for tests.
func (cfg *Config) Rules() int { return len(cfg.rules) }

// Clone returns an independent copy of the configuration.
func (cfg *Config) Clone() *Config {
	return &Config{rules: append([]rule(nil), cfg.rules...)}
}

func matchPattern(pattern, name string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, pattern[:len(pattern)-1])
	}
	return pattern == name
}

// Change is one runtime configuration update distributed by ConfSync.
type Change struct {
	Pattern string
	Active  bool
}

// changeBytes is the wire size of one Change in the ConfSync broadcast.
const changeBytes = 40
