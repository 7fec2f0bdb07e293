package server

import (
	"context"
	"fmt"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/incremental"
)

// BenchmarkServerResolve measures the batched resolve path end to end
// (admission queue → batch → index pass → reply), with concurrent
// submitters so batches actually coalesce.
func BenchmarkServerResolve(b *testing.B) {
	profiles := testProfiles(b, 1000)
	s, err := New(Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:   64,
		QueueDepth: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(8) // 8 submitters per proc so micro-batches coalesce
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Resolve(ctx, profiles[i%len(profiles)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	batches := s.Metrics().Counter(CtrBatches).Value()
	if batches > 0 {
		b.ReportMetric(float64(s.Metrics().Counter(CtrBatchedProfs).Value())/float64(batches), "profiles/batch")
	}
}

// BenchmarkServerResolveShards sweeps the scatter-gather coordinator at
// 1, 4 and 16 shards on the same batched harness. On a multicore host
// the per-shard single-writer actors resolve gathers in parallel; on a
// single-CPU host the sweep measures pure coordination overhead instead.
func BenchmarkServerResolveShards(b *testing.B) {
	profiles := testProfiles(b, 1000)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := New(Config{
				Resolver:   incremental.Config{Scheme: core.JS, K: 10},
				Shards:     shards,
				MaxBatch:   64,
				QueueDepth: 8192,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := s.Resolve(ctx, profiles[i%len(profiles)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
