package mc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"scverify/internal/registry"
	"scverify/internal/trace"
)

// Product keys cross the wire in exact/audit claims and fingerprints decide
// which shard owns a state across processes, so both are pinned byte for
// byte: any change to key encoding or hashing would split a mixed-version
// grid. The golden values below were taken from the clone-per-successor
// engine; the scratch-stepping engine must reproduce them exactly.

var goldenKeySets = []struct {
	protocol string
	params   trace.Params
	limit    int // stop after this many distinct keys; 0 = exhaustive
	states   int
	hash     string
}{
	{"serial", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 0, 9405, "1607f6188f99e4f74fbe8991ad0fb95b93e5dafd52d810e536d4afc0428013e9"},
	{"lazy", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 3000, 3000, "8b809a5e5469380147c241d360063ef81a6c425313ce524137ca6061858e6362"},
	{"storebuffer-fenced", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 3000, 3000, "d717cf73603a73be531277f03af0c35709d32243c46f4d8d18a79e39dfb5195b"},
}

var goldenFingerprints = []struct {
	key string
	fp  uint64
}{
	{"", 0xf52a15e9a9b5e89b},
	{"a", 0x02c0bdbf481420f8},
	{"state-0", 0x1c8a240259be7746},
	{"\x03\x00\x00\x00\x00\x01\x02\xfe\x00", 0x52912f38deaca77e},
}

// slowKeys explores the product breadth-first through Product.Step alone,
// deduplicating on the exact key, and returns the sorted reached keys.
func slowKeys(t *testing.T, name string, params trace.Params, limit int) []string {
	t.Helper()
	tgt, err := registry.Build(name, registry.Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	p := tgt.Protocol
	root := NewProduct(p, ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator})
	seen := map[string]bool{root.Key: true}
	queue := []*Product{root}
	for i := 0; i < len(queue) && (limit == 0 || len(seen) < limit); i++ {
		e := queue[i]
		for idx, tr := range p.Transitions(e.PState) {
			ne, err := e.Step(tr, idx)
			if err != nil {
				t.Fatalf("%s rejected at %v: %v", name, append(e.Path(), idx), err)
			}
			if seen[ne.Key] {
				continue
			}
			seen[ne.Key] = true
			queue = append(queue, ne)
			if limit > 0 && len(seen) == limit {
				break
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestGoldenProductKeys(t *testing.T) {
	for _, g := range goldenKeySets {
		t.Run(fmt.Sprintf("%s/%s", g.protocol, g.params), func(t *testing.T) {
			keys := slowKeys(t, g.protocol, g.params, g.limit)
			h := sha256.New()
			for _, k := range keys {
				h.Write([]byte{byte(len(k)), byte(len(k) >> 8)})
				h.Write([]byte(k))
			}
			got := hex.EncodeToString(h.Sum(nil))
			if len(keys) != g.states || got != g.hash {
				t.Fatalf("slow-path keys: %d states, hash %s; want %d states, hash %s", len(keys), got, g.states, g.hash)
			}
		})
	}
}

func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldenFingerprints {
		if got := Fingerprint(g.key); got != g.fp {
			t.Errorf("Fingerprint(%q) = %#016x, want %#016x", g.key, got, g.fp)
		}
	}
}
