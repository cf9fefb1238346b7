package main

import (
	"fmt"
	"time"
)

// fleet: one long job. The paper's 8-rank Frontier miniQMC trace is
// replicated under fleetReplicas node names (64 agent streams), flat into
// one root with the default agent configuration. Steady-state ingest: the
// agent, wire, gzip, server decode/dedup/merge and TSDB append do the work;
// there is no forwarder, no TSDB query and no job churn.
const fleetReplicas = 8

// fleetRate is the open-loop offered load: about a ninth of the
// 0.75-1.1M events/s closed-loop capacity this workload measured on a
// 2-CPU host at the commit that introduced the benchmark. Nearer half the
// capacity, synchronized TSDB block seals and collections set the
// freshness tail and it moved ±20% from run to run; at this rate the tail
// is the agents' batch-fill time.
const fleetRate = 100000

func runFleet(o opts) outcome {
	return runIngest(o, ingestSpec{
		cfg: rigConfig{rate: fleetRate},
		prepare: func(seed uint64) (jobFeed, error) {
			tp, err := simulate("miniqmc", seed)
			if err != nil {
				return nil, err
			}
			printShape(tp)
			j := &job{id: "fleet", tp: tp}
			for rep := 0; rep < fleetReplicas; rep++ {
				for _, rt := range tp.ranks {
					// Replicas tick out of phase, as unsynchronized nodes do.
					j.streams = append(j.streams, &stream{
						job: j, node: fmt.Sprintf("frontier%05d", rep), rt: rt,
						limit: -1, start: float64(rep) / fleetReplicas, speed: 1,
					})
				}
			}
			return single(j), nil
		},
		warm:        func(r *rig) error { return preload(r, func(*stream) int { return warmUpEvents }) },
		startAgents: true,
	})
}

// single is a feed of one job.
func single(j *job) jobFeed {
	return func() *job {
		out := j
		j = nil
		return out
	}
}

// shown keeps a template's shape from printing once per set-up.
var shown = map[string]bool{}

func printShape(tp *template) {
	if shown[tp.name] {
		return
	}
	shown[tp.name] = true
	sh, err := traceShape(tp)
	if err != nil {
		note("trace %s: %v", tp.name, err)
		return
	}
	note("trace %s: %v", tp.name, sh)
}

// preload admits the feed's first job, has each of its streams publish
// target(stream) events (closed loop, one batch of backlog at most), and
// waits until the root has admitted all of them.
func preload(r *rig, target func(*stream) int) error {
	if len(r.live) == 0 {
		j := r.nextJob()
		if j == nil {
			return fmt.Errorf("preload: no job")
		}
		r.admitJob(j)
	}
	for _, s := range r.streams {
		if s.agent == nil {
			if err := r.startAgent(s); err != nil {
				return err
			}
		}
	}
	for {
		progressed, waiting := false, false
		for _, s := range r.streams {
			if s.pos >= target(s) {
				continue
			}
			waiting = true
			if b := backlog(s.agent); b < defaultBatch {
				for k := 0; k < defaultBatch-int(b) && s.pos < target(s); k++ {
					r.publish(s)
				}
				progressed = true
			}
		}
		if !waiting {
			break
		}
		if !progressed {
			time.Sleep(200 * time.Microsecond)
		}
	}
	var want uint64
	for _, s := range r.streams {
		want += s.es.Published()
	}
	if !r.waitAdmitted(want, 30*time.Second) {
		return fmt.Errorf("preload: root admitted %d of %d events", r.root.Stats().IngestEvents, want)
	}
	return nil
}
