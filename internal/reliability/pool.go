package reliability

import (
	"sync"
	"sync/atomic"

	"repro/internal/ecc/bitslice"
)

// campaign is one sampled fault campaign as the worker pool runs it.
// It covers positions [0, trials): batch b of it draws its 64 lanes
// from SeedForBatch(seed, b) alone, so any split into batch ranges sums
// to the same tally.
type campaign struct {
	// target is the injection target of a random-corruption campaign;
	// nil for a tag campaign.
	target *Target
	// tagEng classifies a tag campaign's uniform nonzero tag
	// differences (see tagCorruptionsRange).
	tagEng *bitslice.Engine
	seed   int64
	trials int

	// tally is the campaign's result, left by runCampaigns.
	tally Tally
}

// itemTrials is the size of one sampled work item: 32 whole 64-lane
// batches, large enough that taking an item costs nothing next to
// running it, small enough that the last items leave little idle time
// at the join.
const itemTrials = 32 * 64

// items returns how many work items c splits into.
func (c *campaign) items() int {
	if c.trials <= 0 {
		return 0
	}
	return (c.trials + itemTrials - 1) / itemTrials
}

// poolWorker is one pool goroutine's state: a Batch per engine, reused
// across every item it runs, and its share of each campaign's tally.
type poolWorker struct {
	batches map[*bitslice.Engine]*bitslice.Batch
	tallies []Tally
}

func (w *poolWorker) batch(eng *bitslice.Engine) *bitslice.Batch {
	b := w.batches[eng]
	if b == nil {
		b = eng.NewBatch()
		w.batches[eng] = b
	}
	return b
}

// run runs item j of c: positions [j·itemTrials, (j+1)·itemTrials),
// of which only the last item may end short, inside a batch.
func (w *poolWorker) run(c *campaign, j int) Tally {
	lo := j * itemTrials
	hi := min(lo+itemTrials, c.trials)
	if c.tagEng != nil {
		return tagCorruptionsRange(c.tagEng, w.batch(c.tagEng), lo, hi, c.seed)
	}
	eng := c.target.eng
	return randomErrorsRange(eng, w.batch(eng), c.seed, lo, hi)
}

// runCampaigns runs the items of every campaign, in campaign order, on
// one pool of `workers` goroutines: each goroutine takes the next item
// index from an atomic counter, so the pool joins once however many
// campaigns it runs. Each campaign is left with its summed tally in
// c.tally; since an item's tally depends only on its positions, the
// sums are the same for every worker count and every interleaving.
func runCampaigns(workers int, cs ...*campaign) {
	// Campaign i owns item indices [first[i], first[i+1]).
	first := make([]int, len(cs)+1)
	for i, c := range cs {
		first[i+1] = first[i] + c.items()
	}
	n := first[len(cs)]
	var next atomic.Int64
	work := func(w *poolWorker) {
		w.batches = make(map[*bitslice.Engine]*bitslice.Batch)
		w.tallies = make([]Tally, len(cs))
		// A worker's indices only increase, so ci only moves forward.
		for i, ci := int(next.Add(1)-1), 0; i < n; i = int(next.Add(1) - 1) {
			for first[ci+1] <= i {
				ci++
			}
			w.tallies[ci] = w.tallies[ci].sum(w.run(cs[ci], i-first[ci]))
		}
	}
	ws := make([]poolWorker, max(1, min(workers, n)))
	if len(ws) == 1 {
		work(&ws[0])
	} else {
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(&ws[i])
			}()
		}
		wg.Wait()
	}
	for _, w := range ws {
		for i, c := range cs {
			c.tally = c.tally.sum(w.tallies[i])
		}
	}
}
