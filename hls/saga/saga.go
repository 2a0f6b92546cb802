// Package saga implements the Sagas model of Garcia-Molina & Salem
// (reference [6] of the paper) on the Activity Service: a long-lived
// transaction structured as a sequence of steps T1…Tn, each with a
// compensation C1…Cn; when Tk fails, the committed prefix is undone by
// running Ck-1…C1 in reverse order.
//
// The mapping onto the framework keeps the coordinator generic: each
// completed step registers a compensation Action with the saga activity's
// compensation SignalSet; on failure the set emits one "compensate" signal
// per completed step carrying the step index in descending order, and each
// action reacts only to its own index — reverse-order compensation through
// pure broadcast.
package saga

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
)

// Protocol names.
const (
	// SetName is the compensation signal set name.
	SetName = "saga-compensation"
	// SignalCompensate carries the index of the step to undo.
	SignalCompensate = "compensate"
)

// Saga errors.
var (
	// ErrStepFailed wraps the failure of a forward step.
	ErrStepFailed = errors.New("saga: step failed")
	// ErrCompensationFailed reports a compensation that itself failed; the
	// saga is then in a heuristic state requiring operator attention.
	ErrCompensationFailed = errors.New("saga: compensation failed")
)

// Step is one forward action plus its compensation. Compensate may be nil
// for steps that need no undo.
type Step struct {
	// Name labels the step's child activity and its compensation.
	Name string
	// Run performs the step's forward work.
	Run func(ctx context.Context) error
	// Compensate undoes Run's committed work; nil needs no undo.
	Compensate func(ctx context.Context) error
}

// Result reports how a saga ended.
type Result struct {
	// Committed is true when every step ran.
	Committed bool
	// FailedStep names the step that failed, if any.
	FailedStep string
	// Compensated lists the undone steps, in execution (reverse) order.
	Compensated []string
}

// newCompensationSet emits one "compensate" signal per registered
// compensation, carrying the step indices in descending order.
func newCompensationSet(completedSteps int) *core.SequenceSet {
	sigs := make([]core.Signal, completedSteps)
	for i := range sigs {
		sigs[i] = core.Signal{Name: SignalCompensate, Data: int64(completedSteps - 1 - i)}
	}
	return core.NewSequenceSet(SetName).Signals(sigs...).Outcomes("compensated", "compensated")
}

// stepCompensation is the Action for one step: it reacts only to the
// signal carrying its own index.
type stepCompensation struct {
	index int
	name  string
	run   func(ctx context.Context) error

	mu  sync.Mutex
	ran bool
}

func (a *stepCompensation) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	idx, ok := sig.Data.(int64)
	if !ok || int(idx) != a.index {
		return core.Outcome{Name: "not-mine"}, nil
	}
	a.mu.Lock()
	if a.ran { // idempotent under at-least-once delivery
		a.mu.Unlock()
		return core.Outcome{Name: "already-compensated"}, nil
	}
	a.mu.Unlock()
	if a.run != nil {
		if err := a.run(ctx); err != nil {
			// ran stays false: a redelivery may retry the compensation.
			return core.Outcome{}, fmt.Errorf("%w: %s: %v", ErrCompensationFailed, a.name, err)
		}
	}
	a.mu.Lock()
	a.ran = true
	a.mu.Unlock()
	return core.Outcome{Name: "compensated:" + a.name}, nil
}

// Saga executes steps with compensation-on-failure.
type Saga struct {
	svc   *core.Service
	name  string
	steps []Step

	parallel   bool
	maxWorkers int
}

// New returns a saga with the given steps.
func New(svc *core.Service, name string, steps ...Step) *Saga {
	return &Saga{svc: svc, name: name, steps: steps}
}

// Parallel opts the saga's forward stage into concurrent execution:
// steps run simultaneously (bounded by maxWorkers; <=0 means one worker
// per step), each still inside its own child activity. Compensation stays
// deterministic — compensations are registered in declared step order and
// run in reverse declared order, never in completion order, and each
// "compensate" broadcast fans out with parallel delivery.
//
// Semantics differ from the serial saga only on mid-sequence failure: a
// serial saga never starts the steps after the first failure, while a
// parallel saga runs every step and compensates all that succeeded.
// FailedStep always names the earliest failed step in declared order.
// Returns s for chaining.
func (s *Saga) Parallel(maxWorkers int) *Saga {
	s.parallel = true
	s.maxWorkers = maxWorkers
	return s
}

// Execute runs the saga: steps execute in order, each inside a child
// activity of the saga activity (the fig. 1 structure — one short-lived
// unit per step). On a step failure the committed prefix is compensated in
// reverse and the saga activity completes with a failure status.
func (s *Saga) Execute(ctx context.Context) (Result, error) {
	root := s.svc.Begin(s.name)
	var (
		result    Result
		completed []*stepCompensation
		failedAt  int
		stepErr   error
		err       error
	)
	if s.parallel {
		completed, failedAt, stepErr, err = s.runForwardParallel(ctx, root, &result)
	} else {
		completed, failedAt, stepErr, err = s.runForwardSerial(ctx, root, &result)
	}
	if err != nil {
		return result, err
	}

	if failedAt < 0 {
		result.Committed = true
		if _, err := root.CompleteWithStatus(ctx, core.CompletionSuccess); err != nil {
			return result, err
		}
		return result, nil
	}

	// Backward recovery: drive the compensation set, then complete failed.
	// Compensation order is deterministic under both forward modes: the
	// set emits one signal per step index in descending declared order,
	// regardless of how the broadcast of each signal is delivered.
	set := newCompensationSet(len(completed))
	if s.parallel {
		set.SetDelivery(core.Parallel())
	}
	if err := root.RegisterSignalSet(set); err != nil {
		return result, err
	}
	if _, err := root.Signal(ctx, SetName); err != nil {
		return result, err
	}
	for i := len(completed) - 1; i >= 0; i-- {
		c := completed[i]
		c.mu.Lock()
		ran := c.ran
		c.mu.Unlock()
		if ran {
			result.Compensated = append(result.Compensated, c.name)
		}
	}
	if _, err := root.CompleteWithStatus(ctx, core.CompletionFail); err != nil {
		return result, err
	}
	return result, fmt.Errorf("%w: %s: %v", ErrStepFailed, result.FailedStep, stepErr)
}

// runStep executes one forward step inside its own child activity and
// returns the step's application error (framework errors are returned
// separately).
func (s *Saga) runStep(ctx context.Context, root *core.Activity, step Step) (runErr, execErr error) {
	child, err := root.BeginChild(step.Name)
	if err != nil {
		return nil, err
	}
	runErr = step.Run(core.NewContext(ctx, child))
	cs := core.CompletionSuccess
	if runErr != nil {
		cs = core.CompletionFail
	}
	if _, err := child.CompleteWithStatus(ctx, cs); err != nil {
		return runErr, err
	}
	return runErr, nil
}

// runForwardSerial executes steps in order, stopping at the first failure;
// each committed step's compensation joins the saga's set as it completes.
func (s *Saga) runForwardSerial(ctx context.Context, root *core.Activity, result *Result) ([]*stepCompensation, int, error, error) {
	var completed []*stepCompensation
	for i, step := range s.steps {
		runErr, execErr := s.runStep(ctx, root, step)
		if execErr != nil {
			return completed, -1, nil, execErr
		}
		if runErr != nil {
			result.FailedStep = step.Name
			return completed, i, runErr, nil
		}
		// Steps without a compensation enrol nothing.
		if step.Compensate == nil {
			continue
		}
		comp := &stepCompensation{index: len(completed), name: step.Name, run: step.Compensate}
		if _, err := root.AddNamedAction(SetName, "C:"+step.Name, comp); err != nil {
			return completed, -1, nil, err
		}
		completed = append(completed, comp)
	}
	return completed, -1, nil, nil
}

// runForwardParallel executes every step concurrently through a bounded
// worker pool, then registers the compensations of the successful steps in
// declared order — so compensation indices (and therefore reverse-order
// compensation) are deterministic no matter how the forward wave
// interleaved.
func (s *Saga) runForwardParallel(ctx context.Context, root *core.Activity, result *Result) ([]*stepCompensation, int, error, error) {
	n := len(s.steps)
	runErrs := make([]error, n)
	execErrs := make([]error, n)

	workers := s.maxWorkers
	if workers <= 0 || workers > n {
		workers = n
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				runErrs[i], execErrs[i] = s.runStep(ctx, root, s.steps[i])
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if execErrs[i] != nil {
			return nil, -1, nil, execErrs[i]
		}
	}

	var completed []*stepCompensation
	failedAt := -1
	var stepErr error
	for i, step := range s.steps {
		if runErrs[i] != nil {
			if failedAt < 0 {
				failedAt = i
				stepErr = runErrs[i]
				result.FailedStep = step.Name
			}
			continue
		}
		if step.Compensate == nil {
			continue
		}
		comp := &stepCompensation{index: len(completed), name: step.Name, run: step.Compensate}
		if _, err := root.AddNamedAction(SetName, "C:"+step.Name, comp); err != nil {
			return completed, -1, nil, err
		}
		completed = append(completed, comp)
	}
	return completed, failedAt, stepErr, nil
}
