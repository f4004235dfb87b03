// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per exhibit, backed by internal/exp) plus micro-benchmarks of
// the substrate. Benchmarks run at a reduced workload scale so the full
// suite completes in minutes; use cmd/dcpbench -scale for paper-sized
// runs. The correctness of each exhibit's *shape* is asserted in
// internal/exp's tests; here the point is regeneration and cost.
package dcpsim_test

import (
	"testing"

	"dcpsim/internal/analytic"
	"dcpsim/internal/exp"
	"dcpsim/internal/packet"
	"dcpsim/internal/sim"
	"dcpsim/internal/stats"
	"dcpsim/internal/units"
	"dcpsim/internal/wire"
)

// benchCfg is the reduced scale used by the benchmark suite.
func benchCfg() exp.Config { return exp.Config{Seed: 42, Scale: 0.02} }

// runExp executes one experiment b.N times and reports the emitted rows.
func runExp(b *testing.B, id string) {
	b.Helper()
	e := exp.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchCfg())
		rows = 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable1LosslessDistance(b *testing.B) { runExp(b, "table1") }
func BenchmarkFig1SpuriousRetrans(b *testing.B)    { runExp(b, "fig1") }
func BenchmarkFig2Timeouts(b *testing.B)           { runExp(b, "fig2") }
func BenchmarkTable2Requirements(b *testing.B)     { runExp(b, "table2") }
func BenchmarkFig7PacketRate(b *testing.B)         { runExp(b, "fig7") }
func BenchmarkTable3TrackingMemory(b *testing.B)   { runExp(b, "table3") }
func BenchmarkTable4Resources(b *testing.B)        { runExp(b, "table4") }
func BenchmarkFig8BasicValidation(b *testing.B)    { runExp(b, "fig8") }
func BenchmarkFig10LossRecovery(b *testing.B)      { runExp(b, "fig10") }
func BenchmarkFig11AdaptiveRouting(b *testing.B)   { runExp(b, "fig11") }
func BenchmarkFig12TestbedAI(b *testing.B)         { runExp(b, "fig12") }
func BenchmarkLongHaul(b *testing.B)               { runExp(b, "longhaul") }
func BenchmarkFig13WebSearch(b *testing.B)         { runExp(b, "fig13") }
func BenchmarkFig14AIWorkloads(b *testing.B)       { runExp(b, "fig14") }
func BenchmarkFig15CrossDC(b *testing.B)           { runExp(b, "fig15") }
func BenchmarkFig16IncastCC(b *testing.B)          { runExp(b, "fig16") }
func BenchmarkTable5HOLoss(b *testing.B)           { runExp(b, "table5") }
func BenchmarkFig17LossSchemes(b *testing.B)       { runExp(b, "fig17") }

// Design-choice ablations called out in DESIGN.md.
func BenchmarkAblationWRRWeight(b *testing.B)     { runExp(b, "ab-wrr") }
func BenchmarkAblationRetransBatch(b *testing.B)  { runExp(b, "ab-batch") }
func BenchmarkAblationTracking(b *testing.B)      { runExp(b, "ab-track") }
func BenchmarkAblationTrimThreshold(b *testing.B) { runExp(b, "ab-trim") }
func BenchmarkAblationCCRetrans(b *testing.B)     { runExp(b, "ab-ccretx") }

// --- substrate micro-benchmarks ---

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(units.Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(0, tick)
	eng.Run(0)
}

// BenchmarkEngineDeepHeap measures schedule+dispatch with ~24k events
// pending, the queue depth of the scheme matrix before timer re-arms
// stopped leaving cancelled entries behind. Each dispatched event
// schedules one more at a random offset, so the depth holds steady.
func BenchmarkEngineDeepHeap(b *testing.B) {
	const depth = 24_000
	eng := sim.NewEngine(1)
	rng := eng.Rand()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == b.N {
			eng.Stop()
		}
		eng.After(units.Time(rng.Intn(depth))*units.Nanosecond, tick)
	}
	for i := 0; i < depth; i++ {
		eng.After(units.Time(rng.Intn(depth))*units.Nanosecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
}

// BenchmarkEngineCancel measures scheduling an event, cancelling it and
// discarding it from the queue head.
func BenchmarkEngineCancel(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.After(units.Time(i%64), fn).Cancel()
		if i%64 == 63 {
			eng.Run(0)
		}
	}
	eng.Run(0)
}

// BenchmarkTimerReset measures an ACK clock that re-arms a retransmission
// timer on every ACK, as the IRN and SDR senders do: one dispatched event
// and one Timer.Reset per op, with the timeout 100 ACKs out.
func BenchmarkTimerReset(b *testing.B) {
	eng := sim.NewEngine(1)
	const gap = 100 * units.Nanosecond
	expired := 0
	rto := sim.NewTimer(eng, func() { expired++ })
	n := 0
	var ack func()
	ack = func() {
		n++
		if n == b.N {
			rto.Stop()
			return
		}
		rto.Reset(100 * gap)
		eng.After(gap, ack)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(0, ack)
	eng.Run(0)
	if expired > 0 {
		b.Fatal("timer expired under a steady ACK clock")
	}
	b.ReportMetric(float64(eng.MaxHeapDepth), "max-heap")
}

// BenchmarkWireDataRoundTrip measures DCP header encode+decode.
func BenchmarkWireDataRoundTrip(b *testing.B) {
	p := &wire.DataPacket{
		IP:      wire.IPv4{Tag: wire.TagData, TTL: 64},
		BTH:     wire.BTH{OpCode: wire.OpWriteMiddle, DestQP: 77, PSN: 1234},
		MSN:     5,
		HasRETH: true,
		RETH:    wire.RETH{VA: 1 << 40, RKey: 9, Length: 1 << 20},
		Payload: make([]byte, packet.DefaultMTU),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := p.Marshal()
		if _, err := wire.UnmarshalDataPacket(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireTrimBounce measures the switch trim + receiver bounce path.
func BenchmarkWireTrimBounce(b *testing.B) {
	p := &wire.DataPacket{
		IP:      wire.IPv4{Tag: wire.TagData, TTL: 64},
		BTH:     wire.BTH{OpCode: wire.OpWriteMiddle, DestQP: 77, PSN: 1234},
		MSN:     5,
		HasRETH: true,
		RETH:    wire.RETH{VA: 1 << 40, RKey: 9, Length: 1 << 20},
		Payload: make([]byte, packet.DefaultMTU),
	}
	enc := p.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ho, err := wire.TrimToHO(enc)
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.BounceHO(ho, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackingModels evaluates the Fig. 7 analytic model across OOO
// degrees.
func BenchmarkTrackingModels(b *testing.B) {
	p := analytic.DefaultPPS()
	var sink float64
	for i := 0; i < b.N; i++ {
		for d := 0; d <= 448; d += 64 {
			dcp, bm, ch := p.PPS(d)
			sink += dcp + bm + ch
		}
	}
	_ = sink
}

// BenchmarkPercentile measures the stats hot path.
func BenchmarkPercentile(b *testing.B) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i * 7919 % 10007)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Percentile(vals, 99)
	}
}

func BenchmarkAblationBackToSender(b *testing.B) { runExp(b, "ab-b2s") }

func BenchmarkExtensionNDP(b *testing.B) { runExp(b, "ext-ndp") }

// Failure-recovery experiment family (internal/faults).
func BenchmarkFaultRecovery(b *testing.B)   { runExp(b, "fault-flap") }
func BenchmarkFaultDegrade(b *testing.B)    { runExp(b, "fault-degrade") }
func BenchmarkFaultPauseStorm(b *testing.B) { runExp(b, "fault-pause") }
