package workload_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qfusor/internal/data"
	"qfusor/internal/engines"
	"qfusor/internal/workload"
)

// TestConcurrentFusedQ12MatchesNative: two goroutines run fused Zillow
// Q12 at parallelism 1 at the same time. Both reuse one cached fused
// wrapper, and every fused execution path runs it on a worker clone
// with its own interpreter view, so no row may differ from the native
// result (run it under -race: a shared interpreter shows up there).
func TestConcurrentFusedQ12MatchesNative(t *testing.T) {
	in := engines.Launch(engines.Config{Profile: engines.Monet, JIT: true, Parallelism: 1})
	t.Cleanup(in.Close)
	if err := workload.InstallZillow(in); err != nil {
		t.Fatal(err)
	}
	in.Put(workload.GenZillow(workload.Tiny))
	native, err := in.Query(workload.Q12)
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(native)
	const goroutines, runs = 2, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				got, err := in.QueryFused(workload.Q12)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %v", g, r, err)
					return
				}
				if rows := tableRows(got); rows != want {
					errs <- fmt.Errorf("goroutine %d run %d: fused result differs from native: %s", g, r, firstDiff(rows, want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// firstDiff names the first row where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d: %s, want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(g)-1, len(w)-1)
}

// tableRows renders every row of t, in order, as one comparable string.
func tableRows(t *data.Table) string {
	var s []byte
	for i := 0; i < t.NumRows(); i++ {
		for _, c := range t.Cols {
			s = append(s, c.Get(i).Repr()...)
			s = append(s, '|')
		}
		s = append(s, '\n')
	}
	return string(s)
}
