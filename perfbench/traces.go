package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

// rankTrace is everything one simulated rank's monitor produced: its
// stream events (payloads owned by the trace), and the end-of-run snapshot
// and received-bytes row an agent ships when the job ends.
type rankTrace struct {
	rank    int
	events  []export.Event
	snap    core.Snapshot
	commRow map[int]uint64
}

// template is one simulated job, replayed as often as a workload needs.
type template struct {
	name  string
	ranks []*rankTrace
	// loopSec is the sample-time shift between two replays of the trace:
	// one second past its last sample, so a looped series keeps rising.
	loopSec float64
}

// simulate runs one template job through the simulator on a Frontier
// node and captures every rank's stream.
func simulate(name string, seed uint64) (*template, error) {
	var app workload.App
	var srun slurm.Options
	stallTicks := 0
	switch name {
	case "miniqmc":
		// The paper's configuration: 8 ranks x 7 cores, one GPU per rank.
		app = workload.DefaultMiniQMC()
		srun = slurm.Options{NTasks: 8, CoresPerTask: 7, GPUsPerTask: 1, GPUBind: slurm.GPUBindClosest}
	case "pic":
		// Figure 5's halo exchange, run ten times longer than the default so
		// a churn job lasts about as long as a miniQMC one.
		pic := workload.DefaultPICHalo()
		pic.Steps *= 10
		app = pic
		srun = slurm.Options{NTasks: 8, CoresPerTask: 1}
	case "staller":
		// The §3.3 stall profile over 12 s, with stall detection on.
		st := workload.DefaultStaller()
		st.Until, st.StallAt, st.StallFor = 12*sim.Second, 4*sim.Second, 4*sim.Second
		app = st
		srun = slurm.Options{NTasks: 4, CoresPerTask: 2}
		stallTicks = 2
	default:
		return nil, fmt.Errorf("unknown template %q", name)
	}
	tp := &template{name: name}
	byRank := map[int]*rankTrace{}
	res, err := workload.Run(workload.Config{
		Machine: topology.Frontier,
		App:     app,
		Srun:    srun,
		Seed:    seed,
		Monitor: workload.MonitorConfig{
			Enabled: true, CPU: -1, StallTicks: stallTicks,
			StreamFor: func(rank int, node string) *export.Stream {
				rt := &rankTrace{rank: rank}
				byRank[rank] = rt
				s := &export.Stream{}
				s.Subscribe(func(ev export.Event) { rt.events = append(rt.events, ownEvent(ev)) })
				return s
			},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", name, err)
	}
	maxT := 0.0
	for _, rr := range res.Ranks {
		rt := byRank[rr.Rank]
		if rt == nil || rr.Monitor == nil {
			return nil, fmt.Errorf("simulate %s: rank %d produced no stream", name, rr.Rank)
		}
		rt.snap = rr.Snapshot
		rt.commRow = make(map[int]uint64, len(rr.Monitor.RecvBytes()))
		for k, v := range rr.Monitor.RecvBytes() {
			rt.commRow[k] = v
		}
		for _, ev := range rt.events {
			maxT = math.Max(maxT, ev.TimeSec)
		}
		tp.ranks = append(tp.ranks, rt)
	}
	tp.loopSec = math.Floor(maxT) + 1
	return tp, nil
}

// ownEvent deep-copies a borrowed stream event (see export.Event).
func ownEvent(ev export.Event) export.Event {
	switch ev.Kind {
	case export.EventLWP:
		p := *ev.LWP
		ev.LWP = &p
	case export.EventHWT:
		p := *ev.HWT
		ev.HWT = &p
	case export.EventGPU:
		p := *ev.GPU
		ev.GPU = &p
	case export.EventMem:
		p := *ev.Mem
		ev.Mem = &p
	case export.EventIO:
		p := *ev.IO
		ev.IO = &p
	}
	return ev
}

// payload is a stream's reusable copy of one event, re-stamped with a
// shifted sample time; publishing from it allocates nothing.
type payload struct {
	lwp export.LWPSample
	hwt export.HWTSample
	gpu export.GPUSample
	mem export.MemSample
	io  export.IOSample
}

func (p *payload) shifted(ev *export.Event, t float64) export.Event {
	out := export.Event{Kind: ev.Kind, TimeSec: t}
	switch ev.Kind {
	case export.EventLWP:
		p.lwp = *ev.LWP
		p.lwp.TimeSec = t
		out.LWP = &p.lwp
	case export.EventHWT:
		p.hwt = *ev.HWT
		p.hwt.TimeSec = t
		out.HWT = &p.hwt
	case export.EventGPU:
		p.gpu = *ev.GPU
		p.gpu.TimeSec = t
		out.GPU = &p.gpu
	case export.EventMem:
		p.mem = *ev.Mem
		p.mem.TimeSec = t
		out.Mem = &p.mem
	case export.EventIO:
		p.io = *ev.IO
		p.io.TimeSec = t
		out.IO = &p.io
	}
	return out
}

var kindNames = [...]string{"lwp", "hwt", "gpu", "mem", "io", "heartbeat"}

// shape is a template's printed trace shape.
type shape struct {
	events, ranks    int
	seconds          float64
	kinds            [len(kindNames)]int
	v4BytesPerEvent  float64
	burstPerRankTick float64
}

// traceShape measures a template: event-kind mix, events per rank-second,
// the v4 frame size per event in default-size batches, and the mean burst
// each sampling tick lands per rank.
func traceShape(tp *template) (shape, error) {
	sh := shape{ranks: len(tp.ranks), seconds: tp.loopSec - 1}
	var frame []byte
	var wireBytes, ticks int
	for _, rt := range tp.ranks {
		last := math.Inf(-1)
		for _, ev := range rt.events {
			sh.kinds[ev.Kind]++
			if ev.TimeSec != last {
				ticks++
				last = ev.TimeSec
			}
		}
		for lo := 0; lo < len(rt.events); lo += defaultBatch {
			hi := min(lo+defaultBatch, len(rt.events))
			var err error
			frame, err = aggd.AppendBatchFrame(frame[:0], &aggd.Batch{
				Origin: aggd.Origin{Job: tp.name, Node: "n0", Rank: rt.rank},
				Events: rt.events[lo:hi],
			})
			if err != nil {
				return sh, fmt.Errorf("shape %s: %w", tp.name, err)
			}
			wireBytes += len(frame)
		}
		sh.events += len(rt.events)
	}
	sh.v4BytesPerEvent = float64(wireBytes) / float64(sh.events)
	sh.burstPerRankTick = float64(sh.events) / float64(ticks)
	return sh, nil
}

func (sh shape) String() string {
	mix := ""
	for k, n := range sh.kinds {
		if n > 0 {
			mix += fmt.Sprintf(" %s=%.1f%%", kindNames[k], 100*float64(n)/float64(sh.events))
		}
	}
	return fmt.Sprintf("%d events, %d ranks, %.0f s simulated, %.1f events/rank-s, ~%.0f events per rank per tick, v4 %.2f B/event;%s",
		sh.events, sh.ranks, sh.seconds, float64(sh.events)/float64(sh.ranks)/sh.seconds,
		sh.burstPerRankTick, sh.v4BytesPerEvent, mix)
}

// hashEvents folds events into h in a fixed binary layout covering every
// field an agent ships.
func hashEvents(h hash.Hash, events []export.Event) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // hash.Hash Write never fails
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for i := range events {
		ev := &events[i]
		put(uint64(ev.Kind))
		f(ev.TimeSec)
		switch ev.Kind {
		case export.EventLWP:
			s := ev.LWP
			put(uint64(s.TID))
			_, _ = io.WriteString(h, s.Kind)
			put(uint64(s.State))
			f(s.UserPct)
			f(s.SysPct)
			put(s.VCtx)
			put(s.NVCtx)
			put(s.MinFlt)
			put(s.MajFlt)
			put(s.NSwap)
			put(uint64(s.CPU))
			if s.Stalled {
				put(1)
			}
		case export.EventHWT:
			put(uint64(ev.HWT.CPU))
			f(ev.HWT.IdlePct)
			f(ev.HWT.SysPct)
			f(ev.HWT.UserPct)
		case export.EventGPU:
			put(uint64(ev.GPU.GPU))
			_, _ = io.WriteString(h, ev.GPU.Metric)
			f(ev.GPU.Value)
		case export.EventMem:
			put(ev.Mem.TotalKB)
			put(ev.Mem.FreeKB)
			put(ev.Mem.AvailKB)
			put(ev.Mem.ProcRSSKB)
			put(ev.Mem.ProcHWMKB)
		case export.EventIO:
			put(ev.IO.RChar)
			put(ev.IO.WChar)
			put(ev.IO.SyscR)
			put(ev.IO.SyscW)
			put(ev.IO.ReadBytes)
			put(ev.IO.WriteBytes)
		}
	}
}

// templateHash is the SHA-256 of a template's events, rank by rank.
func templateHash(tp *template) []byte {
	h := sha256.New()
	for _, rt := range tp.ranks {
		_, _ = fmt.Fprintf(h, "%s/%d/%d;", tp.name, rt.rank, len(rt.events)) // hash.Hash Write never fails
		hashEvents(h, rt.events)
	}
	return h.Sum(nil)
}
