package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"

	"helios/internal/ooo"
)

// statsDigest is the SHA-256 of a result's statistics in their JSON
// form — the bytes heliosd serves — so any changed counter changes it.
func statsDigest(st *ooo.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("marshal ooo.Stats: %v", err)) // plain data; cannot fail
	}
	return sumHex(b)
}

func sumHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// hashCounter is an io.Writer that counts and hashes what it is given
// and keeps none of it: an obs sink whose cost is the emission alone.
type hashCounter struct {
	n int64
	h hash.Hash
}

func newHashCounter() *hashCounter { return &hashCounter{h: sha256.New()} }

func (c *hashCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	c.h.Write(p)
	return len(p), nil
}

func (c *hashCounter) stream() streamDigest {
	return streamDigest{Bytes: c.n, SHA256: hex.EncodeToString(c.h.Sum(nil))}
}

type streamDigest struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// observedCell is the expected output of one observed replay.
type observedCell struct {
	Stats    string       `json:"stats"`
	PipeView streamDigest `json:"pipeview"`
	Events   streamDigest `json:"events"`
	Interval streamDigest `json:"interval"`
}

// goldenFile holds the outputs the program produced at the commit that
// defined this benchmark. A change that alters any simulated statistic,
// rendered table or obs stream fails the gate; a change meant to alter
// them regenerates the file with -golden-out and says so.
type goldenFile struct {
	PaperSuite struct {
		Tables string            `json:"tables"`
		Cells  map[string]string `json:"cells"`
	} `json:"paper_suite"`
	Observed map[string]observedCell `json:"observed_replay"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns the embedded golden digests or, when the run
// writes digests, the file it writes them to, so that runs of different
// workloads fill one file.
func loadGolden(o options) (*goldenFile, error) {
	data := goldenJSON
	if o.goldenOut != "" {
		if b, err := os.ReadFile(o.goldenOut); err == nil {
			data = b
		}
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func (g *goldenFile) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// mismatches counts the keys of want whose value got does not match,
// including keys got lacks, and returns them sorted.
func mismatches[V comparable](got, want map[string]V) []string {
	var bad []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
