// Command scserve runs the concurrent network SC-checking service: the
// online form of the Section 5 testing deployment, where observers inside
// running systems stream k-graph descriptors to a central adjudicator.
// Clients (package scserve's Client, or `sctest -server`) open length-
// framed sessions, stream descriptor wire bytes, and receive one verdict
// frame each; every session's checker runs on its connection's goroutine,
// and TCP flow control is its backpressure.
//
// Usage:
//
//	scserve -addr :7541                          # serve until SIGINT
//	scserve -addr :7541 -max-sessions 512 -read-timeout 1m
//
// SIGINT/SIGTERM begins a graceful shutdown: the listener closes, in-
// flight sessions run to their verdicts (bounded by -drain-timeout), and
// the final stats line is printed.
//
// SIGUSR1 toggles drain mode without touching the listener: a draining
// server refuses fresh sessions with the draining verdict (retrying
// clients and scgrid redirect immediately), keeps serving resumes and
// in-flight sessions, and rejoins on the next SIGUSR1 — the rolling-
// restart primitive. The same switch is reachable over the wire via the
// drain admin frame (Client.Drain / Client.Undrain).
//
// The same server doubles as a distributed-exploration backend: an
// `scverify -grid` coordinator opens explore sessions (flag-gated hello
// extension) and the server runs one visited-set shard per session. The
// -explore-* flags size those shards; explore activity shows up in the
// stats line and on -stats-addr alongside the session counters.
//
// -stats-addr serves the live stats line over HTTP as plain text ("/")
// and JSON ("/json") for scrapers and the scgrid aggregator.
//
// Exit status: 0 clean serve, 1 drain timeout exceeded, 2 usage/IO error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scverify/internal/scserve"
)

// parseWeights parses a -tenant-weights value like "alice=3,bob=1".
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad weight entry %q (want tenant=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight for tenant %q: %q (want positive integer)", name, val)
		}
		out[name] = w
	}
	return out, nil
}

// serveStats exposes the server's stats over HTTP: plain text on "/",
// JSON on "/json". Failures to serve stats never take the checker down.
func serveStats(addr string, srv *scserve.Server) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, srv.Stats())
	})
	mux.HandleFunc("/json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(srv.Stats())
	})
	go http.Serve(ln, mux)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7541", "listen address")
		maxSessions  = flag.Int("max-sessions", 256, "maximum concurrent sessions")
		maxFrame     = flag.Int("max-frame", 1<<20, "maximum frame payload bytes")
		maxK         = flag.Int("max-k", 4096, "maximum session bandwidth bound k")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-frame read / idle timeout (0 disables)")
		writeTimeout = flag.Duration("write-timeout", time.Minute, "per-write deadline (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		ackInterval  = flag.Int("ack-interval", 1024, "symbols between checkpoints on resumable sessions")
		resumeMax    = flag.Int("resume-max", 1024, "maximum retained session checkpoints")
		resumeBytes  = flag.Int64("resume-bytes", 64<<20, "checkpoint retention memory budget in bytes")
		resumeTTL    = flag.Duration("resume-ttl", 15*time.Minute, "checkpoint retention age limit (negative disables)")
		structured   = flag.Bool("log", false, "emit structured (slog) session, drain and error events on stderr")
		statsAddr    = flag.String("stats-addr", "", "serve stats over HTTP on this address (text on /, JSON on /json)")

		exploreWorkers   = flag.Int("explore-workers", 0, "worker goroutines per distributed-exploration shard (0 = GOMAXPROCS)")
		exploreMaxStates = flag.Int("explore-max-states", 0, "hard per-shard visited-state budget for explore sessions (0 = default)")

		admitWait      = flag.Duration("admit-wait", 0, "how long an over-capacity hello may wait for a fair-share slot (0 rejects busy immediately)")
		admitQueue     = flag.Int("admit-queue", 0, "max hellos parked in the admission queue (0 = max-sessions)")
		tenantSessions = flag.Int("tenant-sessions", 0, "per-tenant concurrent session cap (0 uncapped)")
		tenantBPS      = flag.Int64("tenant-bytes-per-sec", 0, "per-tenant sustained stream byte rate (0 unlimited)")
		tenantBurst    = flag.Int64("tenant-burst-bytes", 0, "per-tenant burst bucket in bytes (0 = one second at the rate)")
		tenantWeights  = flag.String("tenant-weights", "", "fair-share weights, e.g. alice=3,bob=1 (default weight 1)")
	)
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scserve: -tenant-weights: %v\n", err)
		os.Exit(2)
	}
	cfg := scserve.Config{
		MaxSessions:       *maxSessions,
		MaxFrame:          *maxFrame,
		MaxK:              *maxK,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		AckInterval:       *ackInterval,
		ResumeMaxSessions: *resumeMax,
		ResumeMaxBytes:    *resumeBytes,
		ResumeTTL:         *resumeTTL,
		AdmitWait:         *admitWait,
		AdmitQueue:        *admitQueue,
		TenantSessions:    *tenantSessions,
		TenantBytesPerSec: *tenantBPS,
		TenantBurstBytes:  *tenantBurst,
		TenantWeights:     weights,
		ExploreWorkers:    *exploreWorkers,
		ExploreMaxStates:  *exploreMaxStates,
	}
	if *structured {
		cfg.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scserve: listen: %v\n", err)
		os.Exit(2)
	}
	srv := scserve.New(cfg)
	fmt.Printf("scserve: listening on %s (max %d sessions, k ≤ %d)\n", ln.Addr(), *maxSessions, *maxK)
	if *statsAddr != "" {
		if err := serveStats(*statsAddr, srv); err != nil {
			fmt.Fprintf(os.Stderr, "scserve: stats listen: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("scserve: stats on http://%s/\n", *statsAddr)
	}

	// SIGUSR1 toggles drain mode: first signal drains (fresh hellos get
	// the draining verdict, resumes and in-flight sessions keep running),
	// the next undrains — so an aborted rolling restart is reversible
	// without restarting the process.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if srv.Draining() {
				srv.Undrain()
				fmt.Println("scserve: SIGUSR1: drain lifted; admitting fresh sessions")
			} else {
				srv.Drain()
				fmt.Println("scserve: SIGUSR1: draining; fresh sessions redirected, resumes still served")
			}
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan error, 1)
	go func() {
		s := <-sig
		fmt.Printf("scserve: %v: draining in-flight sessions (budget %s; signal again to force)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			// A second SIGINT/SIGTERM skips the rest of the drain.
			s := <-sig
			fmt.Printf("scserve: %v again: forcing shutdown\n", s)
			cancel()
		}()
		drained <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != scserve.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "scserve: serve: %v\n", err)
		os.Exit(2)
	}
	err = <-drained
	fmt.Printf("scserve: %s\n", srv.Stats())
	if err != nil {
		fmt.Fprintf(os.Stderr, "scserve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
}
