// Package registry names the repository's codecs so CLIs and configs
// can select them by string. It lives outside package compress to keep
// the interface package dependency-free.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qcsim/internal/compress"
	"qcsim/internal/compress/fpziplike"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/compress/xortrunc"
	"qcsim/internal/compress/zfplike"
)

// factories maps codec names (and their paper aliases) to constructors.
// Every call returns a fresh instance so callers never share state
// accidentally.
var factories = map[string]func() compress.Codec{
	"zstd-like":         func() compress.Codec { return lossless.New(false) },
	"zstd-like+shuffle": func() compress.Codec { return lossless.New(true) },
	"sz-a":              func() compress.Codec { return szlike.NewA() },
	"sz-b":              func() compress.Codec { return szlike.NewB() },
	"xor-c":             func() compress.Codec { return xortrunc.New() },
	"xor-d":             func() compress.Codec { return xortrunc.NewShuffled() },
	"zfp-like":          func() compress.Codec { return zfplike.New() },
	"fpzip-like":        func() compress.Codec { return fpziplike.New() },
}

// aliases are the paper's Solution letters and common shorthands.
var aliases = map[string]string{
	"solution-a": "sz-a",
	"solution-b": "sz-b",
	"solution-c": "xor-c",
	"solution-d": "xor-d",
	"lossless":   "zstd-like",
	"zstd":       "zstd-like",
	"sz":         "sz-a",
	"zfp":        "zfp-like",
	"fpzip":      "fpzip-like",
}

// mu guards extra, the runtime-registered factories. The built-in maps
// above are never mutated after init, so they need no lock.
var (
	mu    sync.RWMutex
	extra = map[string]func() compress.Codec{}
)

// Register adds a named codec factory at runtime — the extension point
// the public qcsim facade exposes so third-party codecs can be selected
// by name exactly like the built-ins. The factory must return a fresh
// instance on every call. Names are case-sensitive, must be non-empty,
// and may not collide with a built-in name, alias, or prior
// registration.
func Register(name string, factory func() compress.Codec) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("registry: empty codec name")
	}
	if factory == nil {
		return fmt.Errorf("registry: nil factory for codec %q", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := factories[name]; ok {
		return fmt.Errorf("registry: codec %q already registered (built-in)", name)
	}
	if _, ok := aliases[name]; ok {
		return fmt.Errorf("registry: codec %q already registered (alias)", name)
	}
	if _, ok := extra[name]; ok {
		return fmt.Errorf("registry: codec %q already registered", name)
	}
	extra[name] = factory
	return nil
}

// New returns a fresh codec by name or alias.
func New(name string) (compress.Codec, error) {
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	if f, ok := factories[name]; ok {
		return f(), nil
	}
	mu.RLock()
	f, ok := extra[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown codec %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the canonical codec names (built-in and registered),
// sorted.
func Names() []string {
	mu.RLock()
	out := make([]string, 0, len(factories)+len(extra))
	for n := range extra {
		out = append(out, n)
	}
	mu.RUnlock()
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
