// Command scgrid runs the grid proxy daemon: a wire-compatible scserve
// front that shards checking sessions across a pool of scserve backends.
// Unmodified clients (sccheck -server, sctest -server, RetryClient) point
// at the proxy and get health-checked dispatch, token-pinned resumption,
// and admission control for free; the proxy relays session bytes verbatim,
// so every delivered verdict is byte-for-byte a backend checker's verdict.
//
// Usage:
//
//	scgrid -addr :7542 -backends host1:7541,host2:7541,host3:7541
//
// SIGINT/SIGTERM shuts the proxy down: the listener closes, relayed
// connections are severed (retrying clients absorb this as a transport
// fault), and the final per-backend stats are printed.
//
// Exit status: 0 clean serve, 2 usage/IO error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// aggregated is the /json schema of the grid stats endpoint: the pool's
// own view plus each backend's live scserve stats (fetched over the stats
// frame; fetch errors are reported per backend, not fatal).
type aggregated struct {
	Grid     scgrid.GridStats         `json:"grid"`
	Backends map[string]scserve.Stats `json:"backends,omitempty"`
	Errors   map[string]string        `json:"errors,omitempty"`
}

// collect snapshots pool stats and polls every backend for its own stats.
func collect(g *scgrid.Grid, timeout time.Duration) aggregated {
	agg := aggregated{Grid: g.Stats(), Backends: map[string]scserve.Stats{}, Errors: map[string]string{}}
	for _, bs := range agg.Grid.Backends {
		c, err := scserve.DialTimeout(bs.Addr, timeout)
		if err != nil {
			agg.Errors[bs.Addr] = err.Error()
			continue
		}
		st, err := c.Stats()
		c.Close()
		if err != nil {
			agg.Errors[bs.Addr] = err.Error()
			continue
		}
		agg.Backends[bs.Addr] = st
	}
	return agg
}

// serveStats exposes the aggregated grid view over HTTP: plain text on
// "/", JSON on "/json".
func serveStats(addr string, g *scgrid.Grid, timeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		agg := collect(g, timeout)
		fmt.Fprintf(w, "grid: %d backends, %d healthy, %d draining, %d sheds, %d drain redirects\n",
			len(agg.Grid.Backends), agg.Grid.Healthy, agg.Grid.Draining, agg.Grid.Sheds, agg.Grid.DrainRedirects)
		for _, bs := range agg.Grid.Backends {
			fmt.Fprintf(w, "%s\n", bs)
			if st, ok := agg.Backends[bs.Addr]; ok {
				fmt.Fprintf(w, "  backend: %s\n", st)
			} else if msg, ok := agg.Errors[bs.Addr]; ok {
				fmt.Fprintf(w, "  backend: stats unavailable: %s\n", msg)
			}
		}
	})
	mux.HandleFunc("/json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(collect(g, timeout))
	})
	go http.Serve(ln, mux)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7542", "proxy listen address")
		backends = flag.String("backends", "", "comma-separated scserve backend addresses (required for serving)")

		maxInFlight   = flag.Int("max-inflight", 32, "concurrent sessions per backend before queueing")
		queueDepth    = flag.Int("queue-depth", 64, "sessions allowed to wait for a slot before shedding")
		queueWait     = flag.Duration("queue-wait", 2*time.Second, "how long a queued session waits before shedding busy")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health probe cadence for live backends")
		readmitDelay  = flag.Duration("readmit-delay", 3*time.Second, "base delay before re-probing an ejected backend")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-operation backend I/O deadline")
		structured    = flag.Bool("log", false, "emit structured (slog) ejection, re-admission, drain and failover events on stderr")
		statsAddr     = flag.String("stats-addr", "", "serve aggregated grid+backend stats over HTTP on this address")
	)
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "scgrid: -backends is required (comma-separated scserve addresses)")
		os.Exit(2)
	}
	cfg := scgrid.Config{
		MaxInFlight:   *maxInFlight,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		ProbeInterval: *probeInterval,
		ReadmitDelay:  *readmitDelay,
		Timeout:       *timeout,
	}
	if *structured {
		cfg.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	g, err := scgrid.New(strings.Split(*backends, ","), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: %v\n", err)
		os.Exit(2)
	}
	defer g.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: listen: %v\n", err)
		os.Exit(2)
	}
	p := scgrid.NewProxy(g)
	g.ProbeNow()
	st := g.Stats()
	fmt.Printf("scgrid: proxy on %s over %d backends (%d healthy, %d in-flight/backend)\n",
		ln.Addr(), len(st.Backends), st.Healthy, *maxInFlight)
	if *statsAddr != "" {
		if err := serveStats(*statsAddr, g, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "scgrid: stats listen: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("scgrid: stats on http://%s/\n", *statsAddr)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("scgrid: %v: shutting down\n", s)
		p.Shutdown()
	}()

	if err := p.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "scgrid: serve: %v\n", err)
		os.Exit(2)
	}
	for _, bs := range g.Stats().Backends {
		fmt.Printf("scgrid: %s\n", bs)
	}
}
