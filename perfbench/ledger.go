package main

import (
	"fmt"

	"zerosum/internal/aggd"
)

// ledger is the pipeline's event books, tier by tier, once every agent and
// forwarder has stopped.
type ledger struct {
	published   uint64 // events offered to the agents' streams
	enqueued    uint64 // agent AgentStats.Enqueued
	sent        uint64
	sentBatches uint64
	ringDrops   uint64
	sendDrops   uint64
	retries     uint64

	tree          bool
	firstAdmitted uint64 // IngestEvents summed over the tier agents post to
	fwdEnqueued   uint64
	fwdAcked      uint64
	fwdDropped    uint64
	fwdPending    uint64
	rollupSkipped uint64
	rootAdmitted  uint64
	census        uint64 // the root's /api/jobs event counts, summed
}

func (l *ledger) addAgent(st aggd.AgentStats, published uint64) {
	l.published += published
	l.enqueued += st.Enqueued
	l.sent += st.SentEvents
	l.sentBatches += st.SentBatches
	l.ringDrops += st.RingDrops
	l.sendDrops += st.SendDrops
	l.retries += st.Retries
}

func (l *ledger) add(o ledger) {
	l.published += o.published
	l.enqueued += o.enqueued
	l.sent += o.sent
	l.sentBatches += o.sentBatches
	l.ringDrops += o.ringDrops
	l.sendDrops += o.sendDrops
	l.retries += o.retries
}

// drops is every event the books count as lost on the way to the root.
func (l ledger) drops() uint64 {
	return l.ringDrops + l.sendDrops + l.fwdDropped + l.rollupSkipped
}

// delivered is the share of published events the root admitted.
func (l ledger) delivered() float64 {
	if l.published == 0 {
		return 0
	}
	return float64(l.rootAdmitted) / float64(l.published)
}

// check closes the books: each tier hands on exactly what it took in,
// minus what it counted as dropped, and the root's job census agrees with
// its admitted count.
func (l ledger) check() []error {
	var errs []error
	eq := func(what string, a, b uint64) {
		if a != b {
			errs = append(errs, fmt.Errorf("conservation: %s: %d != %d", what, a, b))
		}
	}
	eq("published == agents enqueued", l.published, l.enqueued)
	eq("agents enqueued == sent + ring drops + send drops", l.enqueued, l.sent+l.ringDrops+l.sendDrops)
	eq("agents sent == first tier admitted", l.sent, l.firstAdmitted)
	if l.tree {
		eq("leaves admitted == forwarders enqueued", l.firstAdmitted, l.fwdEnqueued)
		eq("forwarders pending after close", l.fwdPending, 0)
		eq("forwarders enqueued == acked + dropped", l.fwdEnqueued, l.fwdAcked+l.fwdDropped)
		eq("forwarders acked == root admitted + rollup-skipped", l.fwdAcked, l.rootAdmitted+l.rollupSkipped)
	}
	eq("published == root admitted + counted drops", l.published, l.rootAdmitted+l.drops())
	eq("root /api/jobs census == root admitted", l.census, l.rootAdmitted)
	return errs
}
