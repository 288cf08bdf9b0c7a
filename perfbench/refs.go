package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The reference values the correctness checks compare against. They are
// recorded from the program at the commit that defined the benchmark
// (--record-refs rewrites them after a deliberate model change). A
// reference file that is missing or unreadable makes every check that
// needs it fail; it never stops the run.

// digestRefs maps an experiment ID to the SHA-256 of its rendered output.
type digestRefs struct {
	path string
	want map[string]string
	err  error // why want is unusable, reported by every check
	got  map[string]string
}

func loadDigests(path string) *digestRefs {
	d := &digestRefs{path: path, want: map[string]string{}, got: map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		d.err = err
		return d
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			d.err = fmt.Errorf("%s: malformed line %q", path, line)
			return d
		}
		d.want[id] = strings.TrimSpace(sum)
	}
	return d
}

func digest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// check compares one rendered experiment with its recorded digest (or,
// when recording, remembers it).
func (d *digestRefs) check(id, out string, record bool) error {
	sum := digest(out)
	if record {
		d.got[id] = sum
		return nil
	}
	if d.err != nil {
		return fmt.Errorf("no reference for %s: %w", id, d.err)
	}
	want, ok := d.want[id]
	if !ok {
		return fmt.Errorf("no reference for %s in %s", id, d.path)
	}
	if sum != want {
		return fmt.Errorf("%s: output digest %s differs from reference %s", id, sum[:12], shortHash(want))
	}
	return nil
}

// save writes the recorded digests.
func (d *digestRefs) save() error {
	ids := make([]string, 0, len(d.got))
	for id := range d.got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("# SHA-256 of each experiment's rendered output (perfbench --record-refs)\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "%s %s\n", id, d.got[id])
	}
	return writeRef(d.path, []byte(b.String()))
}

// goldenRefs compares rendered experiments with the committed golden
// files, read when the run starts so a deliberate regeneration carries
// over.
type goldenRefs struct {
	want map[string][]byte
	errs map[string]error
}

func loadGolden(dir string, ids []string) *goldenRefs {
	g := &goldenRefs{want: map[string][]byte{}, errs: map[string]error{}}
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			g.errs[id] = err
			continue
		}
		g.want[id] = data
	}
	return g
}

func (g *goldenRefs) check(id, out string) error {
	if err := g.errs[id]; err != nil {
		return fmt.Errorf("no golden output for %s: %w", id, err)
	}
	if want := g.want[id]; !bytes.Equal(want, []byte(out)) {
		return fmt.Errorf("%s: output (%d bytes) differs from the golden file (%d bytes)", id, len(out), len(want))
	}
	return nil
}

// counterRefs maps a simulation ("<events>/<workload>/<mechanism>") to its
// simulated counters.
type counterRefs struct {
	path string
	want map[string]map[string]uint64
	err  error
	got  map[string]map[string]uint64
}

func loadCounters(path string) *counterRefs {
	c := &counterRefs{path: path, got: map[string]map[string]uint64{}}
	data, err := os.ReadFile(path)
	if err != nil {
		c.err = err
		return c
	}
	if err := json.Unmarshal(data, &c.want); err != nil {
		c.err = fmt.Errorf("%s: %w", path, err)
	}
	return c
}

func (c *counterRefs) check(key string, got map[string]uint64, record bool) error {
	if record {
		c.got[key] = got
		return nil
	}
	if c.err != nil {
		return fmt.Errorf("no reference for %s: %w", key, c.err)
	}
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("no reference for %s in %s", key, c.path)
	}
	return sameCounters(key, got, want)
}

// sameCounters reports the first counter that differs.
func sameCounters(key string, got, want map[string]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d counters, reference has %d", key, len(got), len(want))
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			return fmt.Errorf("%s: %s = %d, reference %d", key, name, g, v)
		}
	}
	return nil
}

// save merges the recorded counters into the reference file, so short
// and full settings can be recorded by separate runs.
func (c *counterRefs) save() error {
	all := map[string]map[string]uint64{}
	for k, v := range c.want {
		all[k] = v
	}
	for k, v := range c.got {
		all[k] = v
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return fmt.Errorf("encode counters: %w", err)
	}
	return writeRef(c.path, append(data, '\n'))
}

func writeRef(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("record references: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("record references: %w", err)
	}
	return nil
}
