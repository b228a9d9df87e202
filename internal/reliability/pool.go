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
// across every item it runs, its share of each campaign's tally, and
// the campaign its last item belonged to.
type poolWorker struct {
	batches map[*bitslice.Engine]*bitslice.Batch
	tallies []Tally
	ci      int
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

// poolSize is the number of goroutines forEach starts for n items on
// `workers`: at least one, at most one per item.
func poolSize(workers, n int) int {
	return max(1, min(workers, n))
}

// forEach calls f(g, i) once for every item i in [0, n) on
// poolSize(workers, n) goroutines — the calling one alone when that is
// one — and returns when every call has. g is the index of the
// goroutine making the call; each goroutine takes the next i from an
// atomic counter, so the items one goroutine sees only increase.
func forEach(workers, n int, f func(g, i int)) {
	var next atomic.Int64
	work := func(g int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(g, i)
		}
	}
	size := poolSize(workers, n)
	if size == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < size; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(g)
		}()
	}
	wg.Wait()
}

// runCampaigns runs the items of every campaign, in campaign order, on
// one forEach pool of `workers` goroutines, so the pool joins once
// however many campaigns it runs. Each campaign is left with its summed
// tally in c.tally; since an item's tally depends only on its
// positions, the sums are the same for every worker count and every
// interleaving.
func runCampaigns(workers int, cs ...*campaign) {
	// Campaign i owns item indices [first[i], first[i+1]).
	first := make([]int, len(cs)+1)
	for i, c := range cs {
		first[i+1] = first[i] + c.items()
	}
	n := first[len(cs)]
	ws := make([]poolWorker, poolSize(workers, n))
	for i := range ws {
		ws[i] = poolWorker{batches: make(map[*bitslice.Engine]*bitslice.Batch), tallies: make([]Tally, len(cs))}
	}
	forEach(len(ws), n, func(g, i int) {
		w := &ws[g]
		// A goroutine's items only increase, so its campaign only moves
		// forward.
		for first[w.ci+1] <= i {
			w.ci++
		}
		w.tallies[w.ci] = w.tallies[w.ci].sum(w.run(cs[w.ci], i-first[w.ci]))
	})
	for _, w := range ws {
		for i, c := range cs {
			c.tally = c.tally.sum(w.tallies[i])
		}
	}
}
