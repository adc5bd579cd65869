// Package registry names the repository's protocols and wires each to its
// appropriate ST-order generator and observer configuration, so command-
// line tools, examples and benchmarks construct verification targets
// uniformly.
package registry

import (
	"fmt"
	"sort"

	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/protocols/directory"
	"scverify/internal/protocols/dragonbus"
	"scverify/internal/protocols/lazycache"
	"scverify/internal/protocols/mesibus"
	"scverify/internal/protocols/moesibus"
	"scverify/internal/protocols/msibus"
	"scverify/internal/protocols/serial"
	"scverify/internal/protocols/storebuffer"
	"scverify/internal/protocols/writethrough"
	"scverify/internal/trace"
)

// Target is a ready-to-verify protocol: the machine itself, its ST-order
// generator, and the observer ID pool it needs.
type Target struct {
	Protocol  protocol.Protocol
	Generator observer.Generator
	PoolSize  int // 0 means the observer default (see K)
	// ExpectSC records the ground-truth verdict for experiment tables.
	ExpectSC bool
	// Note is a one-line description for listings.
	Note string
}

// Options tune protocol construction.
type Options struct {
	Params   trace.Params
	QueueCap int // store-buffer / lazy-caching queue capacity (default 1)
}

type builder struct {
	build func(Options) Target
	note  string
}

var builders = map[string]builder{
	"serial": {
		note: "atomic serial memory (trivially SC)",
		build: func(o Options) Target {
			return Target{Protocol: serial.New(o.Params), ExpectSC: true}
		},
	},
	"msi": {
		note: "MSI snooping-bus cache coherence (SC)",
		build: func(o Options) Target {
			return Target{Protocol: msibus.New(o.Params), ExpectSC: true}
		},
	},
	"msi-lost-writeback": {
		note: "MSI with eviction dropping dirty data (not SC)",
		build: func(o Options) Target {
			return Target{Protocol: msibus.NewBuggy(o.Params, msibus.BugLostWriteback)}
		},
	},
	"msi-no-invalidate": {
		note: "MSI with BusRdX skipping invalidations (not SC)",
		build: func(o Options) Target {
			return Target{Protocol: msibus.NewBuggy(o.Params, msibus.BugNoInvalidate)}
		},
	},
	"mesi": {
		note: "MESI snooping bus with silent E→M upgrade (SC)",
		build: func(o Options) Target {
			return Target{Protocol: mesibus.New(o.Params), ExpectSC: true}
		},
	},
	"moesi": {
		note: "MOESI snooping bus with dirty sharing via Owned state (SC)",
		build: func(o Options) Target {
			return Target{Protocol: moesibus.New(o.Params), ExpectSC: true}
		},
	},
	"dragon": {
		note: "Dragon update-based snooping bus; stores broadcast to sharers (SC)",
		build: func(o Options) Target {
			return Target{Protocol: dragonbus.New(o.Params), ExpectSC: true}
		},
	},
	"directory": {
		note: "directory protocol with message network and inv-acks (SC)",
		build: func(o Options) Target {
			return Target{Protocol: directory.New(o.Params), ExpectSC: true}
		},
	},
	"lazy": {
		note: "Afek–Brown–Merritt lazy caching; queue-aware ST order (SC)",
		build: func(o Options) Target {
			cap := o.QueueCap
			if cap < 1 {
				cap = 1
			}
			p := lazycache.New(o.Params, cap, cap+1)
			return Target{
				Protocol:  p,
				Generator: observer.Generator{SerializeOn: lazycache.MemoryWrite},
				PoolSize:  p.RecommendedPoolSize(),
				ExpectSC:  true,
			}
		},
	},
	"lazy-realtime": {
		note: "lazy caching under the (wrong) trivial ST-order generator",
		build: func(o Options) Target {
			cap := o.QueueCap
			if cap < 1 {
				cap = 1
			}
			p := lazycache.New(o.Params, cap, cap+1)
			return Target{Protocol: p, PoolSize: p.RecommendedPoolSize()}
		},
	},
	"storebuffer": {
		note: "TSO store buffers with forwarding (not SC)",
		build: func(o Options) Target {
			cap := o.QueueCap
			if cap < 1 {
				cap = 1
			}
			return Target{Protocol: storebuffer.New(o.Params, cap)}
		},
	},
	"storebuffer-fenced": {
		note: "store buffers with a fence before every load (SC; drain-order generator)",
		build: func(o Options) Target {
			cap := o.QueueCap
			if cap < 1 {
				cap = 1
			}
			p := storebuffer.NewFenced(o.Params, cap)
			// Stores serialize at drain time, not issue time: like lazy
			// caching, the fenced buffer needs a queue-aware generator and
			// extra IDs for the queued stores.
			return Target{
				Protocol:  p,
				Generator: observer.Generator{SerializeOn: storebuffer.Drain},
				PoolSize:  observer.DefaultPoolSize(p) + o.Params.Procs*cap,
				ExpectSC:  true,
			}
		},
	},
	"writethrough": {
		note: "write-through/write-no-allocate cache with atomic bus (SC)",
		build: func(o Options) Target {
			return Target{Protocol: writethrough.New(o.Params), ExpectSC: true}
		},
	},
	"writethrough-no-invalidate": {
		note: "write-through cache whose stores skip invalidation (not SC)",
		build: func(o Options) Target {
			return Target{Protocol: writethrough.NewBuggy(o.Params)}
		},
	},
}

// Names lists all registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a protocol name.
func Describe(name string) (string, error) {
	b, ok := builders[name]
	if !ok {
		return "", fmt.Errorf("registry: unknown protocol %q (known: %v)", name, Names())
	}
	return b.note, nil
}

// Build constructs the named verification target.
func Build(name string, opts Options) (Target, error) {
	b, ok := builders[name]
	if !ok {
		return Target{}, fmt.Errorf("registry: unknown protocol %q (known: %v)", name, Names())
	}
	if err := opts.Params.Validate(); err != nil {
		return Target{}, err
	}
	t := b.build(opts)
	t.Note = b.note
	return t, nil
}

// K returns the bandwidth bound of the target's descriptors: its pool
// size, or the observer's Section 4.4 default when PoolSize is 0.
func (t Target) K() int {
	if t.PoolSize != 0 {
		return t.PoolSize
	}
	return observer.DefaultPoolSize(t.Protocol)
}
