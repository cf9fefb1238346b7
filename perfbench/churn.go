package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/report"
	"zerosum/internal/sim"
)

// churn: a seeded stream of short jobs, several live at once, routed by
// consistent hash over churnLeaves leaves whose forwarders ship rollups to
// one root. Each job is a miniQMC, PIC or staller template replayed under a
// fresh job ID on a node drawn from a shared pool, so (node, rank, TID)
// tuples collide across jobs as they do on a facility. A job ends with its
// ranks' snapshots pushed, then its agents closed. It is the only workload
// on the forwarder path and with per-job state growth.
const (
	churnLeaves = 2
	churnPool   = 16 // node names jobs draw from
	// churnRate is the open-loop offered load: about a fifth of the
	// 380-580k events/s closed-loop capacity this workload measured on a
	// 2-CPU host at the commit that introduced the benchmark (see
	// fleetRate).
	churnRate = 100000
	churnLive = 4 // jobs kept live in the closed loop
	// On the schedule's pre-scale timeline a job's trace runs churnSpeed
	// times faster than simulated, and jobs arrive churnGap apart on
	// average: about four jobs overlap before the fixed rate rescales time.
	churnSpeed = 10.0
	churnGap   = 0.55
)

var churnTemplates = []string{"miniqmc", "pic", "staller"}

func runChurn(o opts) outcome {
	return runIngest(o, ingestSpec{
		cfg:     rigConfig{leaves: churnLeaves, rate: churnRate, liveJobs: churnLive},
		prepare: churnFeed,
		check:   checkSummaries,
		layers: func(r *rig, out *outcome) {
			r.mu.Lock()
			var id string
			if len(r.ended) > 0 {
				id = r.ended[0].id
			}
			r.mu.Unlock()
			if id != "" {
				out.layers["aggd.http.summary_ms"], _ = timeGets(r, "/api/job/"+id+"/summary", 5)
			}
		},
	})
}

// churnFeed simulates the templates and returns the seeded job stream:
// exponential gaps and one pool node per job, drawn from the seed. The
// templates take turns, so every seed offers the same job mix and the
// per-job costs it measures do not swing with a lucky draw.
func churnFeed(seed uint64) (jobFeed, error) {
	var tps []*template
	for i, name := range churnTemplates {
		tp, err := simulate(name, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		printShape(tp)
		tps = append(tps, tp)
	}
	rng := sim.NewRNG(seed ^ 0x636875726e) // "churn"
	t := 0.0
	k := 0
	return func() *job {
		t += rng.Exp(churnGap)
		tp := tps[k%len(tps)]
		node := fmt.Sprintf("node%03d", rng.Intn(churnPool))
		j := &job{id: fmt.Sprintf("churn-%05d-%s", k, tp.name), tp: tp, arrival: t}
		k++
		for _, rt := range tp.ranks {
			j.streams = append(j.streams, &stream{
				job: j, node: node, rt: rt, limit: len(rt.events), start: t, speed: churnSpeed,
			})
		}
		return j
	}, nil
}

// checkSummaries asserts every ended job's root /summary is byte-identical
// to report.Aggregate over the snapshots its ranks pushed.
func checkSummaries(r *rig, out *outcome) {
	r.mu.Lock()
	ended := append([]*job(nil), r.ended...)
	r.mu.Unlock()
	start := time.Now()
	ok := 0
	for _, j := range ended {
		snaps := make([]core.Snapshot, 0, len(j.streams))
		for _, s := range j.streams {
			snaps = append(snaps, s.rt.snap)
		}
		want, err := report.Aggregate(snaps, core.EvalThresholds{})
		if err != nil {
			out.errf("job %s: aggregate: %v", j.id, err)
			continue
		}
		exp, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			out.errf("job %s: encode: %v", j.id, err)
			continue
		}
		exp = append(exp, '\n')
		err = get(r.readClient, r.rootURL+"/api/job/"+j.id+"/summary", func(body []byte) error {
			if !bytes.Equal(body, exp) {
				return fmt.Errorf("summary differs from report.Aggregate of its snapshots")
			}
			return nil
		})
		if err != nil {
			out.errf("job %s: %v", j.id, err)
			continue
		}
		ok++
	}
	note("summaries: %d of %d ended jobs byte-identical to report.Aggregate (%.0f ms)", ok, len(ended), float64(time.Since(start))/1e6)
}
