package main

import (
	"strconv"
	"sync"
	"time"
)

// The machines this runs on are shared: the same process is 15–20% faster
// or slower from one minute to the next, on both cores at once, with no
// steal time reported. Ten seconds of medians cannot average that away, so
// every timed pass is bracketed by a fixed calibration kernel and reported
// at reference speed: measured × calibReference / (kernel time around the
// pass). Sizing runs on this box: ten-second medians of one `sat -seq` run
// spread 12.9% (interquartile over median) raw and 5.1% calibrated; the
// kernel's ten-second medians correlate 0.85–0.88 with the run's.
//
// The kernel mixes what the engines mix — integer ALU work, dependent loads
// from a table larger than the caches, hash-map inserts and lookups with
// small allocations — because neither alone tracked the slowdown as well.

// calibReference is the kernel's time on this box when nothing disturbs it;
// it only fixes the scale, so that calibrated seconds read like seconds.
const calibReference = 150 * time.Millisecond

var (
	chaseOnce  sync.Once
	chaseTable []int32
)

func calibrate() time.Duration {
	chaseOnce.Do(func() {
		const n = 16 << 20 // 64 MiB of int32: well past the last-level cache
		chaseTable = make([]int32, n)
		for i := range chaseTable {
			chaseTable[i] = int32((i + 4099*1024) % n)
		}
	})
	start := time.Now()

	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}

	j := int32(x & 0xffff)
	for i := 0; i < 1_200_000; i++ {
		j = chaseTable[j]
	}

	m := make(map[int]string)
	for i := 0; i < 200_000; i++ {
		m[i*7919%1000003] = strconv.Itoa(i)
	}
	n := 0
	for i := 0; i < 200_000; i++ {
		n += len(m[i*7919%1000003])
	}

	d := time.Since(start)
	if n == 0 || j < 0 { // never: keeps the kernels from being optimised away
		return 0
	}
	return d
}

// calibrated converts a measured duration to reference speed given the
// kernel's time just before and just after it.
func calibrated(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * 2 * float64(calibReference) / float64(before+after))
}
