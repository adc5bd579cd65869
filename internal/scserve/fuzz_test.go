package scserve

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/faultnet"
	"scverify/internal/trace"
)

// FuzzFrameParser feeds arbitrary bytes to the frame reader: no panics,
// and every parsed frame respects the payload limit.
func FuzzFrameParser(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameHello, 0x00})
	f.Add([]byte{frameSymbols, 0x05, 1, 2, 3, 4, 5})
	f.Add([]byte{frameEnd, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(append([]byte{frameVerdict, 0x03}, 0, 1, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		const max = 1 << 10
		for {
			typ, payload, err := readFrame(br, max)
			if err != nil {
				if err == io.EOF && len(payload) != 0 {
					t.Fatal("EOF with payload")
				}
				return
			}
			if len(payload) > max {
				t.Fatalf("frame type %#x: payload %d exceeds limit", typ, len(payload))
			}
		}
	})
}

// FuzzFrameRoundTrip: whatever writeFrame emits, readFrame returns
// verbatim, including back-to-back frames.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), []byte{}, byte(2), []byte{9, 9})
	f.Fuzz(func(t *testing.T, typ1 byte, p1 []byte, typ2 byte, p2 []byte) {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, typ1, p1); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(bw, typ2, p2); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		br := bufio.NewReader(&buf)
		for i, want := range []struct {
			typ     byte
			payload []byte
		}{{typ1, p1}, {typ2, p2}} {
			typ, payload, err := readFrame(br, len(p1)+len(p2))
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if typ != want.typ || !bytes.Equal(payload, want.payload) {
				t.Fatalf("frame %d: got (%#x, %v), want (%#x, %v)", i, typ, payload, want.typ, want.payload)
			}
		}
		if _, _, err := readFrame(br, 1<<10); err != io.EOF {
			t.Fatalf("trailing read: %v, want io.EOF", err)
		}
	})
}

// FuzzHelloAndVerdictParsers: arbitrary payloads never panic the parsers,
// and well-formed values survive a round trip.
func FuzzHelloAndVerdictParsers(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(appendHello(nil, SyntheticHeader()), appendVerdict(nil, Verdict{Code: VerdictReject, Symbol: 3, Offset: 17, Msg: "x"}))
	f.Add([]byte{}, appendVerdict(nil, Verdict{Code: VerdictReject, Symbol: 3, Offset: 17, Constraint: 1, CycleLen: 2, Msg: "cycle"}))
	// Grid-relevant seeds: the payload shapes the scgrid proxy relays and
	// the pool's probes parse — tokened and resuming hellos, the busy and
	// resume-miss verdict vocabularies, and unknown future flag bits on
	// both frames (which must fail cleanly, never misparse).
	f.Add(appendHello(nil, Header{K: 3, Params: trace.Params{Procs: 1, Blocks: 1, Values: 2}, Token: NewToken()}),
		appendVerdict(nil, BusyVerdict("server at session capacity (256)")))
	f.Add(appendHello(nil, Header{K: 3, Token: "t", Resume: true, AckSymbol: 64, AckOffset: 4096}),
		appendVerdict(nil, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: resumeMissPrefix + "unknown or expired session token"}))
	f.Add([]byte{protocolVersion, 3, 1, 1, 2, 1 << 6}, []byte{0x10 | byte(VerdictAccept), 0, 0})
	// Tiered-extension seeds: HelloFlagTiered and VerdictFlagTier are
	// allocated and handled now, so these payloads must parse and
	// round-trip. A tier extension cut short mid-field must still fail
	// cleanly (the second verdict payload ends after the witness fields).
	f.Add(appendHello(nil, Header{K: 3, Params: trace.Params{Procs: 1, Blocks: 1, Values: 2}, Tiered: true}),
		appendVerdict(nil, Verdict{Code: VerdictReject, Symbol: 3, Offset: 17, Constraint: 1, CycleLen: 2,
			Tiered: true, Tier: 4, ReorderStore: 0, ReorderPast: 1, Msg: "cycle"}))
	f.Add([]byte{protocolVersion, 3, 1, 1, 2, descriptor.HelloFlagTiered | helloFlagNoValues},
		[]byte{descriptor.VerdictFlagTier | verdictFlagWitness | byte(VerdictReject), 4, 18, 2, 3})
	// An unknown-to-this-build tier code (a newer peer grew the ladder)
	// must parse and round-trip untouched.
	f.Add(appendHello(nil, Header{K: 3, Tiered: true, Token: "t"}),
		appendVerdict(nil, Verdict{Code: VerdictReject, Symbol: 0, Offset: 0,
			Tiered: true, Tier: maxTierCode - 1, ReorderStore: -1, ReorderPast: -1, Msg: "m"}))
	// Live-operations seeds: tenant-identified hellos (alone and riding
	// after the token/resume section) and the draining/quota refinements of
	// the busy verdict family. A tenant field cut short mid-ID must fail
	// cleanly, never misparse.
	f.Add(appendHello(nil, Header{K: 3, Params: trace.Params{Procs: 1, Blocks: 1, Values: 2}, Tenant: "alice"}),
		appendVerdict(nil, DrainingVerdict("backend draining; redirect or retry elsewhere")))
	f.Add(appendHello(nil, Header{K: 3, Token: "t", Resume: true, AckSymbol: 4, AckOffset: 64, Tenant: "bob"}),
		appendVerdict(nil, QuotaVerdict(`tenant "bob" at session cap (2)`)))
	f.Add([]byte{protocolVersion, 3, 1, 1, 2, helloFlagTenant, 3, 'a', 'b'}, // truncated tenant
		appendVerdict(nil, BusyVerdict("draining"))) // busy mentioning draining w/o the prefix
	f.Fuzz(func(t *testing.T, hp, vp []byte) {
		if h, err := parseHello(hp); err == nil {
			back, err2 := parseHello(appendHello(nil, h))
			if err2 != nil || back != h {
				t.Fatalf("hello round trip: %+v -> %+v (%v)", h, back, err2)
			}
		}
		if v, err := parseVerdict(vp); err == nil {
			back, err2 := parseVerdict(appendVerdict(nil, v))
			if err2 != nil || back != v {
				t.Fatalf("verdict round trip: %+v -> %+v (%v)", v, back, err2)
			}
		}
	})
}

// FuzzResumeFrame fuzzes the fault-tolerance wire extensions: the ack
// frame and the token/resume hello fields. Parsers must never panic, and
// any payload they accept must round-trip exactly. Headers without
// fault-tolerance fields must keep the legacy encoding prefix so old
// servers and clients interoperate byte-identically.
func FuzzResumeFrame(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(appendAck(nil, 0, 0), appendHello(nil, SyntheticHeader()))
	f.Add(appendAck(nil, 1024, 1<<20),
		appendHello(nil, Header{K: 3, Token: "resume-token", Resume: true, AckSymbol: 77, AckOffset: 512}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{1, 3, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, ap, hp []byte) {
		if sym, off, err := parseAck(ap); err == nil {
			s2, o2, err2 := parseAck(appendAck(nil, sym, off))
			if err2 != nil || s2 != sym || o2 != off {
				t.Fatalf("ack round trip: (%d, %d) -> (%d, %d), %v", sym, off, s2, o2, err2)
			}
			if sym < 0 || off < 0 {
				t.Fatalf("parseAck accepted negative position (%d, %d)", sym, off)
			}
		}
		if h, err := parseHello(hp); err == nil {
			back, err2 := parseHello(appendHello(nil, h))
			if err2 != nil || back != h {
				t.Fatalf("hello round trip: %+v -> %+v (%v)", h, back, err2)
			}
			if h.Token == "" && (h.Resume || h.AckSymbol != 0 || h.AckOffset != 0) {
				t.Fatalf("parseHello accepted resume fields without a token: %+v", h)
			}
			bare := h
			bare.Token, bare.Resume, bare.AckSymbol, bare.AckOffset = "", false, 0, 0
			legacy := appendHello(nil, bare)
			if with := appendHello(nil, h); !bytes.HasPrefix(with, legacy[:2]) {
				t.Fatalf("token hello does not share the legacy prefix: % x vs % x", with, legacy)
			}
		}
	})
}

// FuzzRetryClient runs the retrying client against a live server through
// a fault link that cuts the first connections at a fuzzed byte count,
// then goes clean. Whatever the cut points, the delivered verdict must be
// exactly correct — faults may only delay the answer, never change it.
func FuzzRetryClient(f *testing.F) {
	srv := New(Config{ReadTimeout: 5 * time.Second, AckInterval: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln)
	f.Cleanup(func() { ln.Close() })
	addr := ln.Addr().String()

	f.Add(int64(1), uint16(40), uint8(30), uint8(1))
	f.Add(int64(42), uint16(2000), uint8(200), uint8(2))
	f.Add(int64(7), uint16(0), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, resetAfter uint16, size, faulty uint8) {
		stream, rejectIdx := SyntheticReject(int(size)%200 + 2)
		nFaulty := int64(faulty % 3) // at most 2 faulty dials, then clean

		var dials atomic.Int64
		dial := func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) <= nFaulty {
				return faultnet.Wrap(conn, faultnet.Config{
					Seed:            seed,
					WriteChunk:      7,
					ResetAfterBytes: int64(resetAfter) + 1,
				}, nil), nil
			}
			return conn, nil
		}
		rc := NewRetryClient(addr, RetryConfig{
			Timeout: 5 * time.Second, MaxAttempts: 8, BaseDelay: time.Millisecond,
			Seed: seed, PollEvery: 1 << 10, Dial: dial,
		})
		defer rc.Close()
		v, err := rc.Check(SyntheticHeader(), stream)
		if err != nil {
			t.Fatalf("faults must degrade to retries, not errors (seed=%d reset=%d faulty=%d): %v",
				seed, resetAfter, nFaulty, err)
		}
		if v.Code != VerdictReject || v.Symbol != rejectIdx || v.Offset != offsetOf(stream, rejectIdx) {
			t.Fatalf("wrong verdict through faults: %+v, want reject at symbol %d byte %d",
				v, rejectIdx, offsetOf(stream, rejectIdx))
		}
	})
}

// FuzzTierVerdictFrame fuzzes the tiered-verdict wire extension from the
// structured side: any tier code below the tolerance bound — including
// codes this build's ladder does not define, from a newer peer — must
// encode, parse back field-for-field, and re-encode byte-identically.
// Verdicts without the tier bit must stay byte-identical to the legacy
// encoding regardless of what the (ignored) tier arguments hold.
func FuzzTierVerdictFrame(f *testing.F) {
	f.Add(true, uint8(5), uint16(3), uint16(9), int64(17), uint8(2), uint8(4), "cycle")
	f.Add(true, uint8(0), uint16(0), uint16(0), int64(0), uint8(0), uint8(0), "")
	f.Add(true, uint8(63), uint16(1), uint16(0), int64(2), uint8(0), uint8(1), "m")
	f.Add(false, uint8(4), uint16(7), uint16(3), int64(44), uint8(1), uint8(2), "legacy")
	f.Fuzz(func(t *testing.T, tiered bool, tier uint8, rstore, rpast uint16, off int64, constraint, cyc uint8, msg string) {
		v := Verdict{
			Code: VerdictReject, Symbol: int(rstore) + int(rpast), Offset: off & (1<<40 - 1),
			Constraint: int(constraint) % (int(checker.ConstraintInternal) + 1), CycleLen: int(cyc), Msg: msg,
		}
		if tiered {
			v.Tiered = true
			v.Tier = int(tier) % maxTierCode
			// Reorder positions are either both absent (-1) or both set.
			if rstore%2 == 0 {
				v.ReorderStore, v.ReorderPast = -1, -1
			} else {
				v.ReorderStore, v.ReorderPast = int(rstore), int(rpast)
			}
		}
		enc := appendVerdict(nil, v)
		got, err := parseVerdict(enc)
		if err != nil {
			t.Fatalf("tier verdict rejected by parser: %+v: %v", v, err)
		}
		if got != v {
			t.Fatalf("tier verdict round trip: %+v -> %+v", v, got)
		}
		if again := appendVerdict(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("tier verdict re-encode differs: % x vs % x", again, enc)
		}
		if !tiered {
			legacy := appendVerdict(nil, Verdict{
				Code: v.Code, Symbol: v.Symbol, Offset: v.Offset,
				Constraint: v.Constraint, CycleLen: v.CycleLen, Msg: v.Msg,
			})
			if !bytes.Equal(enc, legacy) {
				t.Fatalf("untier-ed verdict encoding drifted from legacy: % x vs % x", enc, legacy)
			}
		}
	})
}

// FuzzServerConn throws an arbitrary client byte stream at a live
// connection handler: the server must neither panic nor leak the handler
// goroutine, whatever the bytes contain.
func FuzzServerConn(f *testing.F) {
	valid := func(stream descriptor.Stream) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeFrame(bw, frameHello, appendHello(nil, SyntheticHeader()))
		writeFrame(bw, frameSymbols, descriptor.Marshal(stream))
		writeFrame(bw, frameEnd, nil)
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(valid(SyntheticAccept(9)))
	rej, _ := SyntheticReject(2)
	f.Add(valid(rej))
	f.Add([]byte{frameHello, 0x00, frameEnd, 0x00})
	f.Add([]byte{frameStatsReq, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	// Grid-relevant seeds: a tokened session (the ack/checkpoint path a
	// grid session drives), a resume hello against an empty checkpoint
	// store (the resume-miss answer scgrid recovers from), and a hello
	// from the future carrying unknown flag bits.
	tokened := func(stream descriptor.Stream) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		h := SyntheticHeader()
		h.Token = "fuzz-token"
		writeFrame(bw, frameHello, appendHello(nil, h))
		writeFrame(bw, frameSymbols, descriptor.Marshal(stream))
		writeFrame(bw, frameEnd, nil)
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(tokened(SyntheticAccept(9)))
	resuming := func() []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		h := SyntheticHeader()
		h.Token, h.Resume, h.AckSymbol, h.AckOffset = "fuzz-token", true, 4, 64
		writeFrame(bw, frameHello, appendHello(nil, h))
		writeFrame(bw, frameEnd, nil)
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(resuming())
	futureHello := append([]byte{frameHello, 6}, protocolVersion, SyntheticK, 1, 1, 2, 1<<5)
	f.Add(append(futureHello, frameEnd, 0x00))
	// A tiered session whose stream rejects: drives the server-side tier
	// adjudication path end to end.
	tiered := func(stream descriptor.Stream) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		h := SyntheticHeader()
		h.Tiered = true
		writeFrame(bw, frameHello, appendHello(nil, h))
		writeFrame(bw, frameSymbols, descriptor.Marshal(stream))
		writeFrame(bw, frameEnd, nil)
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(tiered(rej))
	f.Add(tiered(SyntheticAccept(9)))
	// Live-operations seeds: a tenant-identified session (the per-tenant
	// accounting path), the drain admin frame flipping the server into and
	// out of drain mode around a session, and a malformed drain payload.
	tenanted := func(stream descriptor.Stream) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		h := SyntheticHeader()
		h.Tenant = "fuzz-tenant"
		writeFrame(bw, frameHello, appendHello(nil, h))
		writeFrame(bw, frameSymbols, descriptor.Marshal(stream))
		writeFrame(bw, frameEnd, nil)
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(tenanted(SyntheticAccept(9)))
	drainCycle := func() []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeFrame(bw, frameDrain, []byte{1})
		writeFrame(bw, frameHello, appendHello(nil, SyntheticHeader()))
		writeFrame(bw, frameEnd, nil)
		writeFrame(bw, frameDrain, []byte{0})
		bw.Flush()
		return buf.Bytes()
	}
	f.Add(drainCycle())
	// An explore hello whose target pool (L + p·b + p + 2b + 2) is far
	// above its k: it must be refused before any engine is built.
	var explore bytes.Buffer
	ebw := bufio.NewWriter(&explore)
	writeFrame(ebw, frameHello, appendHello(nil, Header{K: 8, Params: trace.Params{Procs: 65536, Blocks: 1, Values: 1},
		Explore: &ExploreHeader{Protocol: "serial", Shards: []string{"a"}}}))
	ebw.Flush()
	f.Add(explore.Bytes())
	f.Add([]byte{frameDrain, 0x00})             // empty drain payload
	f.Add([]byte{frameDrain, 0x01, 0x07})       // out-of-range drain mode
	f.Add([]byte{frameDrain, 0x02, 0x01, 0x99}) // trailing bytes after mode

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(Config{MaxFrame: 1 << 16, MaxK: 64, ReadTimeout: 2 * time.Second})
		server, client := net.Pipe()
		srv.wg.Add(1)
		go srv.handleConn(server)

		// Drain server responses so its writes never block the pipe.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, client)
		}()

		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		for len(data) > 0 { // dribble in smallish writes
			n := len(data)
			if n > 64 {
				n = 64
			}
			if _, err := client.Write(data[:n]); err != nil {
				break
			}
			data = data[n:]
		}
		client.Close()
		srv.wg.Wait()
		<-drained
	})
}

// TestExploreHelloParamsBounded sends explore hellos whose p, b or queue
// capacity make the target's observer pool, and with it the engine's
// (k+2)² adjacency, far larger than the hello's k. Each must get a
// protocol-error verdict without the server allocating for that pool, and
// the server must go on accepting sessions.
func TestExploreHelloParamsBounded(t *testing.T) {
	_, addr := startServer(t, Config{ExploreWorkers: 1})
	for _, row := range []struct {
		protocol string
		params   trace.Params
		queueCap int
	}{
		{"serial", trace.Params{Procs: 65536, Blocks: 1, Values: 1}, 0},
		{"lazy", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 1 << 20},
		{"directory", trace.Params{Procs: 1 << 31, Blocks: 1 << 31, Values: 1}, 0},
	} {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bw := bufio.NewWriter(conn)
		writeFrame(bw, frameHello, appendHello(nil, Header{K: 8, Params: row.params,
			Explore: &ExploreHeader{Protocol: row.protocol, QueueCap: row.queueCap, Shards: []string{"a"}}}))
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(bufio.NewReader(conn), 1<<20)
		runtime.ReadMemStats(&after)
		conn.Close()
		if err != nil || typ != frameVerdict {
			t.Fatalf("%s %v: frame %#x, %v; want a verdict", row.protocol, row.params, typ, err)
		}
		v, err := parseVerdict(payload)
		if err != nil || v.Code != VerdictProtocolError {
			t.Errorf("%s %v: verdict %+v (%v), want a protocol error", row.protocol, row.params, v, err)
		}
		t.Logf("%s %v: %s", row.protocol, row.params, v.Msg)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s %v: hello allocated %d MiB", row.protocol, row.params, grew>>20)
		}
		c := dialT(t, addr)
		if v, err := c.Check(SyntheticHeader(), SyntheticAccept(9)); err != nil || v.Code != VerdictAccept {
			t.Fatalf("%s %v: following session: %+v, %v; want accept", row.protocol, row.params, v, err)
		}
	}
}

// TestTierHugeIDsBoundedAlloc pins the fix for a FuzzServerConn find (its
// input is committed under testdata): a tiered session may label its
// operations with IDs as large as its hello claims, and tier adjudication
// once sized the exact search by the largest ID. Every session here
// rejects with the same tier, and the server's allocation stays bounded
// whatever the hello says.
func TestTierHugeIDsBoundedAlloc(t *testing.T) {
	_, addr := startServer(t, Config{})
	var want Verdict
	for i, params := range []trace.Params{
		{Procs: 1, Blocks: 1, Values: 2},
		{Procs: 1 << 30, Blocks: 1, Values: 2},
		{Procs: 1, Blocks: 1 << 30, Values: 2},
		{Procs: 1 << 30, Blocks: 1 << 30, Values: 2},
	} {
		// SyntheticReject's operations, moved to the largest legal IDs.
		stream, idx := SyntheticReject(2)
		for j, sym := range stream {
			if n, ok := sym.(descriptor.Node); ok && n.Op != nil {
				op := *n.Op
				op.Proc, op.Block = trace.ProcID(params.Procs), trace.BlockID(params.Blocks)
				n.Op = &op
				stream[j] = n
			}
		}
		c, err := DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := c.Check(Header{K: SyntheticK, Params: params, Tiered: true}, stream)
		runtime.ReadMemStats(&after)
		c.Close()
		if err != nil {
			t.Fatalf("%v: %v", params, err)
		}
		if v.Code != VerdictReject || v.Symbol != idx || !v.Tiered {
			t.Errorf("%v: verdict %+v, want tiered reject at symbol %d", params, v, idx)
		}
		if i == 0 {
			want = v
		} else if v.Tier != want.Tier || v.ReorderStore != want.ReorderStore || v.ReorderPast != want.ReorderPast {
			t.Errorf("%v: tier %d reorder %d/%d, want %d %d/%d as at p=1 b=1", params,
				v.Tier, v.ReorderStore, v.ReorderPast, want.Tier, want.ReorderStore, want.ReorderPast)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%v: session allocated %d MiB", params, grew>>20)
		}
	}
}
