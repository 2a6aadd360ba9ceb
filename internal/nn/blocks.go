package nn

import (
	"sync"
	"sync/atomic"
)

// RowBlocks runs do over rows [0, n) in blocks of block rows, the last
// one shorter, on up to workers goroutines that each take the next
// block until none is left: worker w calls do(w, lo, hi) for every
// block [lo, hi) it takes, so scratch indexed by w is its own. It
// returns once every block is done. With one worker, or one block, do
// runs on the calling goroutine. Which worker takes a block varies from
// run to run, so do must write each row from that row's inputs alone;
// then the result is the same at any worker count.
func RowBlocks(n, block, workers int, do func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	block = max(block, 1)
	blocks := (n + block - 1) / block
	workers = min(max(workers, 1), blocks)
	if workers == 1 {
		for lo := 0; lo < n; lo += block {
			do(0, lo, min(lo+block, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
				lo := b * block
				do(w, lo, min(lo+block, n))
			}
		}(w)
	}
	wg.Wait()
}
