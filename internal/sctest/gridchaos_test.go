package sctest

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"scverify/internal/faultnet"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
)

// gridBackend is one scserve backend the soak can hard-kill and restart
// on the same address.
type gridBackend struct {
	addr string
	srv  *scserve.Server
	done chan error
}

func gridServerConfig() scserve.Config {
	return scserve.Config{
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
		AckInterval:  64, // checkpoint densely: many checkpoints per reset budget
	}
}

func startGridBackend(t *testing.T) *gridBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gb := &gridBackend{addr: ln.Addr().String()}
	gb.serve(ln)
	t.Cleanup(gb.kill)
	return gb
}

func (gb *gridBackend) serve(ln net.Listener) {
	gb.srv = scserve.New(gridServerConfig())
	gb.done = make(chan error, 1)
	srv := gb.srv
	done := gb.done
	go func() { done <- srv.Serve(ln) }()
}

// kill severs the backend hard: listener closed, every in-flight
// connection cut mid-frame.
func (gb *gridBackend) kill() {
	if gb.srv == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gb.srv.Shutdown(ctx)
	<-gb.done
	gb.srv = nil
}

func (gb *gridBackend) restart(t *testing.T) {
	t.Helper()
	gb.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", gb.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", gb.addr, err)
	}
	gb.serve(ln)
}

// TestGridChaosSoakRegistry is the multi-backend fault-tolerance
// acceptance test: the full protocol registry is adjudicated through a
// three-backend scgrid fabric behind a fault-injected link, and the
// campaign itself is attacked — one backend is hard-killed about a third
// of the way through (with its sessions' checkpoints dying with it) and
// restarted cold about two thirds through. The invariant is the same one
// the single-server soak proves, now end to end through dispatch,
// failover, and re-admission: faults may cost transport errors, but
// every delivered verdict equals the local checker's verdict on the same
// run. One wrong verdict fails the test.
//
// Set SCSERVE_SOAK to a duration (e.g. "2m") for a long randomized soak.
func TestGridChaosSoakRegistry(t *testing.T) {
	seed := int64(1)
	deadline := time.Time{}
	if d := os.Getenv("SCSERVE_SOAK"); d != "" {
		dur, err := time.ParseDuration(d)
		if err != nil {
			t.Fatalf("SCSERVE_SOAK=%q: %v", d, err)
		}
		seed = time.Now().UnixNano()
		deadline = time.Now().Add(dur)
		t.Logf("long soak: %v, seed %d", dur, seed)
	}

	backends := []*gridBackend{startGridBackend(t), startGridBackend(t), startGridBackend(t)}
	addrs := []string{backends[0].addr, backends[1].addr, backends[2].addr}

	// Every connection dies after ~20 KiB in either direction: long runs
	// survive on checkpoints (resume) while the killed backend's sessions
	// must fail over with a full replay.
	dialer := faultnet.NewDialer(faultnet.Config{
		Seed:            seed,
		WriteChunk:      1021,
		ReadChunk:       509,
		LatencyProb:     0.002,
		Latency:         2 * time.Millisecond,
		ResetAfterBytes: 20 << 10,
	})
	g, err := scgrid.New(addrs, scgrid.Config{
		Seed:          seed + 1,
		Timeout:       5 * time.Second,
		MaxAttempts:   10,
		BaseDelay:     time.Millisecond,
		MaxDelay:      50 * time.Millisecond,
		PollEvery:     4 << 10,
		QueueWait:     10 * time.Second,
		ProbeInterval: 100 * time.Millisecond, // re-admit the restarted backend quickly
		ReadmitDelay:  100 * time.Millisecond,
		Dial:          scgrid.Dialer(dialer.DialContext),
		Log:           testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// The whole soak runs tiered: on top of the never-wrong-verdict
	// invariant, any delivered tier must equal the local adjudication of
	// the same run — faults may cost a missing tier (resumed sessions are
	// not tiered), never a wrong one.
	remote := GridOpener(g, Tiered()).CheckRun

	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	cases := make([]chaosCase, 0, len(registry.Names()))
	total := 0
	for _, name := range registry.Names() {
		c := chaosCase{name: name, runs: 2, steps: 800}
		switch name {
		case "msi": // accept-heavy, long
			c = chaosCase{name: name, runs: 3, steps: 30000}
		case "mesi":
			c = chaosCase{name: name, runs: 2, steps: 12000}
		case "storebuffer": // reject-heavy, long
			c = chaosCase{name: name, runs: 4, steps: 30000}
		}
		cases = append(cases, c)
		total += c.runs
	}
	// The kill must land mid-session, so aim it at a long run: the first
	// run at or past a third of the campaign whose stream takes long
	// enough that a 50ms-delayed kill strikes while it is in flight.
	killAt, restartAt := total/3, 2*total/3
	idx := 0
	for _, c := range cases {
		for i := 0; i < c.runs; i++ {
			if idx >= total/3 && c.steps >= 10000 {
				killAt = idx
				goto found
			}
			idx++
		}
	}
found:
	if restartAt <= killAt+1 {
		restartAt = killAt + 2
	}
	if restartAt >= total {
		restartAt = total - 1
	}
	killIdx := -1 // which backend the mid-run kill struck
	killDone := make(chan struct{})

	var delivered, rejected, transportErrs, runsTotal, tieredRejections int
	round := 0
	for {
		for _, c := range cases {
			tgt, err := registry.Build(c.name, registry.Options{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.runs; i++ {
				if round == 0 && runsTotal == restartAt {
					<-killDone
					t.Logf("soak: restarting backend %s cold at run %d/%d", backends[killIdx].addr, runsTotal, total)
					backends[killIdx].restart(t)
				}
				run := protocol.RandomRun(tgt.Protocol, c.steps, seed+int64(round*1000+i))
				localErr := CheckRun(run, tgt)
				if round == 0 && runsTotal == killAt {
					// Strike whichever backend is serving this run, 50ms
					// into its session: the session must fail over.
					go func(runNo int) {
						defer close(killDone)
						time.Sleep(50 * time.Millisecond)
						victim := 1
						for bi, bs := range g.Stats().Backends {
							if bs.InFlight > 0 {
								victim = bi
								break
							}
						}
						killIdx = victim
						t.Logf("soak: hard-killing backend %s mid-session at run %d/%d", backends[victim].addr, runNo, total)
						backends[victim].kill()
					}(runsTotal)
				}
				remoteErr := remote(run, tgt)
				runsTotal++

				var ve *scserve.VerdictError
				switch {
				case remoteErr == nil:
					delivered++
					if localErr != nil {
						t.Fatalf("%s run %d: WRONG VERDICT — grid accepted, local checker rejected: %v",
							c.name, i, localErr)
					}
				case errors.As(remoteErr, &ve):
					delivered++
					rejected++
					if ve.Verdict.Busy() || ve.Verdict.Code == scserve.VerdictProtocolError {
						t.Fatalf("%s run %d: non-checker verdict escaped the grid: %v", c.name, i, ve)
					}
					if localErr == nil {
						t.Fatalf("%s run %d: WRONG VERDICT — grid rejected at symbol %d, local checker accepted",
							c.name, i, ve.Verdict.Symbol)
					}
					if ve.Verdict.Tiered {
						tieredRejections++
						lt, ok := LocalTier(run, tgt)
						if !ok || !lt.Checked || int(lt.Tier) != ve.Verdict.Tier {
							t.Fatalf("%s run %d: WRONG TIER — grid adjudicated tier %s, local %s (ok=%v checked=%v)",
								c.name, i, spectrum.Tier(ve.Verdict.Tier), lt.Tier, ok, lt.Checked)
						}
					}
				default:
					transportErrs++
					t.Logf("%s run %d: transport error (tolerated): %v", c.name, i, remoteErr)
				}
			}
		}
		round++
		if deadline.IsZero() || time.Now().After(deadline) {
			break
		}
	}

	st := g.Stats()
	var resumes, failovers, ejections, sessions int64
	for _, bs := range st.Backends {
		resumes += bs.Resumes
		failovers += bs.Failovers
		ejections += bs.Ejections
		sessions += bs.Sessions
		t.Logf("soak: %s", bs)
	}
	t.Logf("soak: %d runs, %d verdicts delivered (%d rejections, %d tiered), %d transport errors; grid: sessions=%d resumes=%d failovers=%d ejections=%d sheds=%d; %s",
		runsTotal, delivered, rejected, tieredRejections, transportErrs, sessions, resumes, failovers, ejections, st.Sheds, dialer.Stats())

	if delivered == 0 {
		t.Fatal("no verdict survived — the soak proved nothing")
	}
	if rejected == 0 {
		t.Fatal("no rejection was delivered — the soak never exercised a non-accept verdict")
	}
	if tieredRejections == 0 {
		t.Fatal("no delivered rejection carried a tier — tiering never survived the faults")
	}
	if transportErrs > runsTotal/4 {
		t.Fatalf("%d/%d runs degraded to transport errors — the fabric barely functions", transportErrs, runsTotal)
	}
	if resumes == 0 {
		t.Fatal("no session ever resumed — the reset budget never forced a mid-stream reconnect")
	}
	if ejections == 0 {
		t.Fatal("the killed backend was never ejected")
	}
	if failovers == 0 {
		t.Fatal("no session ever failed over — the kill never struck one in flight")
	}
	if dialer.Stats().Resets.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	// The restarted backend must rejoin: wait out the probe cadence, then
	// demand the full pool back.
	rejoin := time.Now().Add(10 * time.Second)
	for g.Healthy() != len(backends) {
		if time.Now().After(rejoin) {
			t.Fatalf("healthy = %d after restart, want %d — re-admission failed", g.Healthy(), len(backends))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
