package main

import (
	"reflect"
	"testing"

	"netpath/internal/workload"
)

func TestZipfCounts(t *testing.T) {
	got := zipfCounts(zipfBlock, len(workload.Names()), zipfS)
	want := []int{19, 9, 6, 4, 3, 3, 2, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zipfCounts = %v, want %v", got, want)
	}
}

// TestZipfSequence checks that a seed fixes the whole request sequence and
// that every seed gives every block the same program mix.
func TestZipfSequence(t *testing.T) {
	a, b := zipfRequests(7, 4), zipfRequests(7, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, zipfRequests(8, 4)) {
		t.Fatal("different seeds gave the same order")
	}
	want := map[string]int{}
	for i, c := range zipfCounts(zipfBlock, len(workload.Names()), zipfS) {
		want[workload.Names()[i]] = c
	}
	for _, seed := range []int64{1, 2, 3} {
		reqs := zipfRequests(seed, 4)
		for blk := 0; blk < 4; blk++ {
			got := map[string]int{}
			for _, r := range reqs[blk*zipfBlock : (blk+1)*zipfBlock] {
				got[r.bench]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d block %d mix %v, want %v", seed, blk, got, want)
			}
		}
		// The k-th request for a program goes to tenant k mod 4.
		seen := map[string]int{}
		for i, r := range reqs {
			if w := tenantNames[seen[r.bench]%len(tenantNames)]; r.tenant != w {
				t.Fatalf("seed %d request %d: tenant %s, want %s", seed, i, r.tenant, w)
			}
			seen[r.bench]++
		}
	}
}
