package metablocking

import (
	"context"
	"errors"
	"strings"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/entity"
)

// panickingMethod is a blocking method whose build panics — a stand-in for
// any bug deep inside a pipeline stage.
type panickingMethod struct{}

func (panickingMethod) Name() string { return "panicking" }
func (panickingMethod) Build(c *entity.Collection) *block.Collection {
	panic("blocking stage bug")
}

// TestRunContextRecoversPanic: a panic anywhere in the pipeline surfaces
// as a *PanicError from RunContext instead of killing the process, with
// the stack attached.
func TestRunContextRecoversPanic(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	p := Pipeline{Blocking: panickingMethod{}, Scheme: JS, Algorithm: WNP}
	res, err := p.RunContext(context.Background(), ds.Collection)
	if res != nil {
		t.Fatal("panicking run returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "blocking stage bug" {
		t.Fatalf("recovered value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "Build") {
		t.Fatalf("stack does not show the panicking frame:\n%s", pe.Stack)
	}
	// The same pipeline with a sane method still works afterwards — the
	// process and the caller's goroutine are unharmed.
	p.Blocking = TokenBlocking{}
	if _, err := p.RunContext(context.Background(), ds.Collection); err != nil {
		t.Fatalf("recovery left the pipeline unusable: %v", err)
	}
}

// TestRunContextRecoversWorkerPanic: the panic is raised inside a parallel
// worker goroutine (where recover on the caller cannot see it without
// par's isolation) and must still come back as a typed error.
func TestRunContextRecoversWorkerPanic(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	// Corrupt the input so a parallel stage indexes out of range: a profile
	// ID beyond the collection bounds makes the Entity Index build panic
	// inside its sharded loop.
	profiles := append([]Profile(nil), ds.Collection.Profiles...)
	c := NewDirty(profiles)
	c.Profiles[0].ID = ID(len(profiles) + 1000000)
	p := Pipeline{FilterRatio: 0.8, Scheme: JS, Algorithm: WNP, Workers: 4}
	res, err := p.RunContext(context.Background(), c)
	if err == nil {
		t.Skip("corrupted input did not trip the parallel stage on this path")
	}
	if res != nil {
		t.Fatal("panicking run returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
}

// TestRunContextRecoversPruneWorkerPanic: a panic raised inside a prune
// worker goroutine — an out-of-range scheme reaches the weight function
// only there, after blocking and filtering have succeeded — comes back
// from RunContext as a *PanicError, for node- and edge-centric pruning.
func TestRunContextRecoversPruneWorkerPanic(t *testing.T) {
	ds := GenerateDataset(D1D, 0.05)
	for _, alg := range []Algorithm{WNP, ReciprocalWNP, WEP} {
		p := Pipeline{FilterRatio: 0.8, Scheme: Scheme(99), Algorithm: alg, Workers: 2}
		res, err := p.RunContext(context.Background(), ds.Collection)
		if res != nil {
			t.Fatalf("%v: panicking run returned a result", alg)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: error = %v (%T), want *PanicError", alg, err, err)
		}
		if msg, _ := pe.Value.(string); !strings.Contains(msg, "unknown weighting scheme") {
			t.Fatalf("%v: recovered value = %v", alg, pe.Value)
		}
	}
}
