package main

import (
	"fmt"
	"time"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// d2cShape is the D2C preset of internal/datagen (IMDB–DBpedia-like: a
// terse first source and a verbose second one, Zipf 1.1) at the given
// scale, with the workload seed in place of the preset's fixed seed.
// Scale 1.0 is 17k profiles, scale 3.0 is 51k.
func d2cShape(scale float64, seed int64) datagen.Config {
	n := func(v int) int { return int(float64(v)*scale + 0.5) }
	return datagen.Config{
		Name:       "D2C",
		Seed:       seed,
		Size1:      n(9000),
		Size2:      n(8000),
		Duplicates: n(7000),
		Vocabulary: n(25000),
		ZipfS:      1.1,
		CoreTokens: 6,
		Source1: datagen.SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70,
		},
		Source2: datagen.SourceConfig{
			AttributeNames: 7, AttributesPerProfile: 7,
			TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55,
		},
	}
}

// generate builds the workload input: the D2C-shaped dataset merged into
// one Dirty ER collection. Profile IDs are arrival order.
func generate(scale float64, seed int64) datagen.Dataset {
	return datagen.Generate(d2cShape(scale, seed)).ToDirty("D2D")
}

// resolverConfig is the serving default: JS weighting, top-10
// candidates, the 1000-member block cap.
var resolverConfig = incremental.Config{Scheme: core.JS, K: 10, MaxBlockSize: 1000}

// profileBytes is the user data a profile carries: its attribute names
// and values.
func profileBytes(ps []entity.Profile) int64 {
	var n int64
	for _, p := range ps {
		for _, a := range p.Attributes {
			n += int64(len(a.Name) + len(a.Value))
		}
	}
	return n
}

// buildSnapshot is the resolver state after adding the profiles in
// order: block keys come from the same Keyer the resolver uses, so the
// snapshot equals what Resolver.Snapshot would return, without paying
// for the candidate gathers.
func buildSnapshot(cfg incremental.Config, profiles []entity.Profile) *incremental.Snapshot {
	s := &incremental.Snapshot{
		Config:   cfg,
		Profiles: make([]entity.Profile, len(profiles)),
		Blocks:   make(map[string][]entity.ID),
		BlocksOf: make([][]string, len(profiles)),
	}
	ky := incremental.Keyer{MinTokenLength: cfg.MinTokenLength}
	for i, p := range profiles {
		id := entity.ID(i)
		p.ID = id
		s.Profiles[i] = p
		keys := ky.Keys(p)
		if len(keys) > 0 {
			s.BlocksOf[i] = append([]string(nil), keys...)
		}
		for _, k := range keys {
			s.Blocks[k] = append(s.Blocks[k], id)
		}
	}
	return s
}

// serveInput is the serving workloads' input: the 51k-profile stream,
// the first preload profiles loaded through a snapshot, the rest sent as
// resolve requests. bodies[i] is the request for arrival preload+i and
// parsed[i] the profile the server decodes from it.
type serveInput struct {
	gt      *entity.GroundTruth
	preload int
	snap    *incremental.Snapshot
	bodies  [][]byte
	parsed  []entity.Profile
	bytes   []int64 // user bytes of each arrival
	// dupsOf counts, per arrival (by dataset ID), its ground-truth
	// duplicates among the preloaded profiles.
	dupsOf map[entity.ID]int
}

const (
	serveScale   = 3.0
	servePreload = 40000
)

func newServeInput(seed int64) (*serveInput, error) {
	ds := generate(serveScale, seed)
	ps := ds.Collection.Profiles
	in := &serveInput{
		gt:      ds.GroundTruth,
		preload: servePreload,
		snap:    buildSnapshot(resolverConfig, ps[:servePreload]),
		dupsOf:  make(map[entity.ID]int),
	}
	for _, p := range in.gt.Pairs() {
		if int(p.A) < servePreload && int(p.B) >= servePreload {
			in.dupsOf[p.B]++
		}
	}
	for _, p := range ps[servePreload:] {
		b, err := dataio.MarshalProfileJSON(p)
		if err != nil {
			return nil, fmt.Errorf("encoding arrival: %w", err)
		}
		q, err := dataio.ParseProfileJSON(b)
		if err != nil {
			return nil, fmt.Errorf("decoding arrival: %w", err)
		}
		in.bodies = append(in.bodies, b)
		in.parsed = append(in.parsed, q)
		in.bytes = append(in.bytes, profileBytes([]entity.Profile{p}))
	}
	return in, nil
}

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
