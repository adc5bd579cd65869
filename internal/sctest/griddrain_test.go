package sctest

import (
	"errors"
	"log/slog"
	"strings"
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

// waitDraining blocks until the grid's probes have marked want backends
// draining (the pool learns drain state only by observing verdicts).
func waitDraining(t *testing.T, g *scgrid.Grid, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for g.Stats().Draining < want {
		if time.Now().After(deadline) {
			t.Fatalf("pool never observed %d draining backends", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGridSmokeDrainBackend is the tier-1 drain smoke: a three-backend
// grid serves a registry campaign over clean links while one backend is
// drained mid-campaign. Because nothing is killed, every session must
// deliver its correct verdict — drain may redirect sessions, never cost
// one — and the drained backend must be observed and steered around.
// Deterministic and fast enough for the race detector.
func TestGridSmokeDrainBackend(t *testing.T) {
	backends := []*gridBackend{startGridBackend(t), startGridBackend(t), startGridBackend(t)}
	addrs := []string{backends[0].addr, backends[1].addr, backends[2].addr}
	g, err := scgrid.New(addrs, scgrid.Config{
		Seed:          5,
		Timeout:       5 * time.Second,
		MaxAttempts:   5,
		BaseDelay:     time.Millisecond,
		MaxDelay:      50 * time.Millisecond,
		PollEvery:     4 << 10,
		QueueWait:     5 * time.Second,
		ProbeInterval: 25 * time.Millisecond,
		ReadmitDelay:  50 * time.Millisecond,
		Log:           testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	remote := GridOpener(g, WithTenant("smoke")).CheckRun

	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	names := registry.Names()
	total := 2 * len(names)
	drainAt := total / 3

	runsTotal, delivered := 0, 0
	for _, name := range names {
		tgt, err := registry.Build(name, registry.Options{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if runsTotal == drainAt {
				t.Logf("smoke: draining backend %s at run %d/%d", backends[1].addr, runsTotal, total)
				backends[1].srv.Drain()
				waitDraining(t, g, 1)
			}
			run := protocol.RandomRun(tgt.Protocol, 600, int64(100+i))
			localErr := CheckRun(run, tgt)
			remoteErr := remote(run, tgt)
			runsTotal++

			var ve *scserve.VerdictError
			switch {
			case remoteErr == nil:
				delivered++
				if localErr != nil {
					t.Fatalf("%s run %d: WRONG VERDICT — grid accepted, local checker rejected: %v", name, i, localErr)
				}
			case errors.As(remoteErr, &ve):
				delivered++
				if ve.Verdict.Busy() || ve.Verdict.Code == scserve.VerdictProtocolError {
					t.Fatalf("%s run %d: non-checker verdict escaped the grid: %v", name, i, ve)
				}
				if localErr == nil {
					t.Fatalf("%s run %d: WRONG VERDICT — grid rejected, local checker accepted", name, i)
				}
			default:
				// Clean links, no kills: a drain must never surface as a
				// transport error.
				t.Fatalf("%s run %d: session degraded to an error under drain alone: %v", name, i, remoteErr)
			}
		}
	}

	if delivered != runsTotal {
		t.Fatalf("delivered %d of %d verdicts", delivered, runsTotal)
	}
	st := g.Stats()
	if st.Draining != 1 {
		t.Fatalf("draining = %d at campaign end, want 1", st.Draining)
	}
	if st.Healthy != 3 {
		t.Fatalf("healthy = %d, want 3 — draining is not unhealthy", st.Healthy)
	}
	// The tenant identity rode every hello: the backends accounted it.
	tenanted := false
	for _, gb := range backends {
		if ts, ok := gb.srv.Stats().Tenants["smoke"]; ok && ts.Bytes > 0 {
			tenanted = true
		}
	}
	if !tenanted {
		t.Fatal("no backend accounted the campaign's tenant identity")
	}
	t.Logf("smoke: %d runs delivered through the drain; grid: %+v", delivered, st)
}

// TestGridRollingRestartSoak is the zero-downtime acceptance test: a
// rolling restart is walked across a three-backend grid behind a
// fault-injected link — one backend drains, a second is hard-killed
// while the first is still draining, both restart cold, then a third
// drains and restarts. Faults and drains may cost retries, redirects, or
// clean transport errors; every delivered verdict (and tier) must equal
// the local checker's on the same run, and the full pool must rejoin
// undrained at the end.
func TestGridRollingRestartSoak(t *testing.T) {
	seed := int64(1)
	backends := []*gridBackend{startGridBackend(t), startGridBackend(t), startGridBackend(t)}
	addrs := []string{backends[0].addr, backends[1].addr, backends[2].addr}

	dialer := faultnet.NewDialer(faultnet.Config{
		Seed:            seed,
		WriteChunk:      1021,
		ReadChunk:       509,
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
		ProbeInterval: 50 * time.Millisecond,
		ReadmitDelay:  100 * time.Millisecond,
		Dial:          scgrid.Dialer(dialer.DialContext),
		Log:           testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	remote := GridOpener(g, Tiered(), WithTenant("soak")).CheckRun

	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	cases := make([]chaosCase, 0, len(registry.Names()))
	total := 0
	for _, name := range registry.Names() {
		c := chaosCase{name: name, runs: 2, steps: 800}
		switch name {
		case "msi": // accept-heavy, long: sessions span several reset budgets
			c = chaosCase{name: name, runs: 3, steps: 30000}
		case "mesi":
			c = chaosCase{name: name, runs: 2, steps: 12000}
		case "storebuffer": // reject-heavy, long
			c = chaosCase{name: name, runs: 3, steps: 30000}
		}
		cases = append(cases, c)
		total += c.runs
	}

	// The rolling schedule, in campaign positions: drain b0; hard-kill a
	// busy peer while b0 still drains; restart both cold; drain the third.
	// The kill must land mid-session, so aim it at a long run: the first
	// run at or past two fifths of the campaign whose stream takes long
	// enough that a 50ms-delayed kill strikes while it is in flight.
	drain0At, killAt, restartAt, drain2At := total/5, 2*total/5, 3*total/5, 4*total/5
	idx := 0
	for _, c := range cases {
		for i := 0; i < c.runs; i++ {
			if idx >= 2*total/5 && c.steps >= 10000 {
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
	if drain2At <= restartAt+1 {
		drain2At = restartAt + 2
	}
	if drain2At >= total {
		drain2At = total - 1
	}
	killIdx := 1
	killDone := make(chan struct{})

	var delivered, rejected, transportErrs, runsTotal, tieredRejections int
	for _, c := range cases {
		tgt, err := registry.Build(c.name, registry.Options{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.runs; i++ {
			switch runsTotal {
			case drain0At:
				t.Logf("soak: draining backend %s at run %d/%d", backends[0].addr, runsTotal, total)
				backends[0].srv.Drain()
				waitDraining(t, g, 1)
			case killAt:
				// Strike a non-draining backend mid-session, while b0 is
				// still draining: drained and dead at once. "Mid-session" is
				// detected by state, not a timer — the victim must be holding
				// an in-flight slot AND have already served a mid-stream
				// resume for this run, so the kill is guaranteed to sever a
				// session with live checkpoints.
				before := make([]int64, len(backends))
				for bi, bs := range g.Stats().Backends {
					before[bi] = bs.Resumes
				}
				go func(runNo int) {
					defer close(killDone)
					deadline := time.Now().Add(2 * time.Second)
					victim := -1
					for victim < 0 && time.Now().Before(deadline) {
						for bi, bs := range g.Stats().Backends {
							if bi != 0 && bs.InFlight > 0 && bs.Resumes > before[bi] {
								victim = bi
								break
							}
						}
						if victim < 0 {
							time.Sleep(time.Millisecond)
						}
					}
					if victim < 0 {
						victim = 1
					}
					killIdx = victim
					t.Logf("soak: hard-killing backend %s mid-session at run %d/%d", backends[victim].addr, runNo, total)
					backends[victim].kill()
				}(runsTotal)
			case restartAt:
				<-killDone
				t.Logf("soak: restarting backends %s (killed) and %s (draining) cold at run %d/%d",
					backends[killIdx].addr, backends[0].addr, runsTotal, total)
				backends[killIdx].restart(t)
				// Restarting the draining backend cuts its in-flight sessions
				// (failover) and must clear its drain mark within a probe round.
				backends[0].restart(t)
			case drain2At:
				third := 3 - killIdx // the peer that was neither drained first nor killed
				t.Logf("soak: draining backend %s at run %d/%d", backends[third].addr, runsTotal, total)
				backends[third].srv.Drain()
				waitDraining(t, g, 1)
			}

			run := protocol.RandomRun(tgt.Protocol, c.steps, seed+int64(i))
			localErr := CheckRun(run, tgt)
			remoteErr := remote(run, tgt)
			runsTotal++

			var ve *scserve.VerdictError
			switch {
			case remoteErr == nil:
				delivered++
				if localErr != nil {
					t.Fatalf("%s run %d: WRONG VERDICT — grid accepted, local checker rejected: %v", c.name, i, localErr)
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

	// Final rolling step: restart the last draining backend, then demand
	// the whole pool back, healthy and undrained.
	third := 3 - killIdx
	backends[third].restart(t)

	st := g.Stats()
	var resumes, failovers, ejections int64
	for _, bs := range st.Backends {
		resumes += bs.Resumes
		failovers += bs.Failovers
		ejections += bs.Ejections
		t.Logf("soak: %s", bs)
	}
	t.Logf("soak: %d runs, %d verdicts delivered (%d rejections, %d tiered), %d transport errors; resumes=%d failovers=%d ejections=%d drain-redirects=%d sheds=%d; %s",
		runsTotal, delivered, rejected, tieredRejections, transportErrs, resumes, failovers, ejections, st.DrainRedirects, st.Sheds, dialer.Stats())

	if delivered == 0 {
		t.Fatal("no verdict survived — the soak proved nothing")
	}
	if rejected == 0 {
		t.Fatal("no rejection was delivered — the soak never exercised a non-accept verdict")
	}
	if tieredRejections == 0 {
		t.Fatal("no delivered rejection carried a tier — tiering never survived the rolling restart")
	}
	if transportErrs > runsTotal/4 {
		t.Fatalf("%d/%d runs degraded to transport errors — the fabric barely functions", transportErrs, runsTotal)
	}
	if resumes == 0 {
		t.Fatal("no session ever resumed — the reset budget never forced a mid-stream reconnect")
	}
	if failovers == 0 {
		t.Fatal("no session ever failed over — the kill and restarts never struck one in flight")
	}
	if ejections == 0 {
		t.Fatal("no backend was ever ejected across a hard kill and two cold restarts")
	}
	if dialer.Stats().Resets.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	rejoin := time.Now().Add(10 * time.Second)
	for {
		st := g.Stats()
		if st.Healthy == len(backends) && st.Draining == 0 {
			break
		}
		if time.Now().After(rejoin) {
			t.Fatalf("pool never rejoined undrained: healthy=%d draining=%d, want %d and 0",
				st.Healthy, st.Draining, len(backends))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// testLog returns a logger whose events go to t.Log.
func testLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
