// Package workflow implements §4.4 of the paper: transactional workflow
// coordination on the Activity Service, in the style of the OPENflow
// system ([15]).
//
// The coordination protocol is the paper's four-signal scheme: a parent
// activity sends "start" to child task controllers (acknowledged with
// "start_ack"); a completing child sends "outcome" back to the parent's
// registered Action (acknowledged with "outcome_ack"). Tasks that must
// start together register with the same start SignalSet — the paper's
// "t2 and t3 would register with the same SignalSet since they need to be
// started together, whereas t4 would be registered with a separate
// SignalSet."
//
// A Process is a DAG of Tasks with optional compensations; on failure the
// engine performs the fig. 2 recovery: run the prescribed compensations,
// then execute alternative tasks, mirroring tc1 / t5' / t6'.
package workflow

import (
	"context"
	"errors"
	"fmt"

	"github.com/extendedtx/activityservice/internal/core"
)

// Protocol signal and outcome names (§4.4).
const (
	// SignalStart starts a child task.
	SignalStart = "start"
	// OutcomeStartAck acknowledges a start.
	OutcomeStartAck = "start_ack"
	// SignalOutcome reports a child's completion to the parent.
	SignalOutcome = "outcome"
	// OutcomeOutcomeAck acknowledges an outcome.
	OutcomeOutcomeAck = "outcome_ack"
	// CompletedSetName is each child activity's completion set.
	CompletedSetName = "completed"
)

// Workflow errors.
var (
	// ErrUnknownDependency reports a task depending on a name not in the
	// process.
	ErrUnknownDependency = errors.New("workflow: unknown dependency")
	// ErrCycle reports an unrunnable (cyclic) dependency graph.
	ErrCycle = errors.New("workflow: dependency cycle")
	// ErrTaskFailed wraps a task failure.
	ErrTaskFailed = errors.New("workflow: task failed")
)

// Task is one unit of work: typically tied to a single top-level
// transaction, as fig. 1 prescribes for long-running activities.
type Task struct {
	// Name identifies the task within its process.
	Name string
	// DependsOn names the tasks that must complete before this one
	// starts.
	DependsOn []string
	// Run performs the task inside its own child activity.
	Run func(ctx context.Context) error
	// Compensate undoes the task's committed work when a later task fails
	// and the process's failure policy selects it.
	Compensate func(ctx context.Context) error
}

// Continuation describes fig. 2 recovery for one failing task: compensate
// some committed tasks, then continue with alternatives.
type Continuation struct {
	// Compensate names the completed tasks whose compensations run (in the
	// listed order). Nil means every completed task with a compensation,
	// in reverse completion order.
	Compensate []string
	// Alternatives are tasks executed after compensation (t5', t6').
	// Their DependsOn may reference other alternatives only.
	Alternatives []Task
}

// Process is a named task DAG with failure continuations.
type Process struct {
	// Name labels the process's activity.
	Name string
	// Tasks is the DAG to run.
	Tasks []Task
	// OnFailure maps a failing task's name to its fig. 2 recovery.
	OnFailure map[string]Continuation
}

// Result reports a process execution.
type Result struct {
	// Ok is true when every task (or the continuation path) completed.
	Ok bool
	// Completed lists tasks that completed successfully, in completion
	// order (alternatives included).
	Completed []string
	// Failed names the failing task, if any.
	Failed string
	// Compensated lists tasks whose compensations ran, in execution order.
	Compensated []string
}

// Engine executes processes over an activity service.
type Engine struct {
	svc *core.Service
}

// New returns an Engine over svc.
func New(svc *core.Service) *Engine {
	return &Engine{svc: svc}
}

// event is one child-outcome notification.
type event struct {
	task string
	ok   bool
	err  error
}

// Execute runs the process and returns its result. The first task failure
// stops new scheduling, drains in-flight tasks, then applies the
// continuation for the failed task (if any).
func (e *Engine) Execute(ctx context.Context, p Process) (Result, error) {
	var result Result
	byName := make(map[string]*Task, len(p.Tasks))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		if _, dup := byName[t.Name]; dup {
			return result, fmt.Errorf("workflow: duplicate task %q", t.Name)
		}
		byName[t.Name] = t
	}
	for _, t := range p.Tasks {
		for _, d := range t.DependsOn {
			if _, ok := byName[d]; !ok {
				return result, fmt.Errorf("%w: %q needs %q", ErrUnknownDependency, t.Name, d)
			}
		}
	}

	parent := e.svc.Begin(p.Name)
	run := &processRun{
		engine: e,
		parent: parent,
		events: make(chan event, len(p.Tasks)),
	}
	err := run.executeDAG(ctx, p.Tasks, &result)
	if err == nil {
		result.Ok = true
		if _, cerr := parent.CompleteWithStatus(ctx, core.CompletionSuccess); cerr != nil {
			return result, cerr
		}
		return result, nil
	}
	var failure *taskFailure
	if !errors.As(err, &failure) {
		_, _ = parent.CompleteWithStatus(ctx, core.CompletionFailOnly)
		return result, err
	}
	result.Failed = failure.task

	// Fig. 2 recovery: compensation, then alternatives.
	cont, hasCont := p.OnFailure[failure.task]
	if err := run.compensate(ctx, cont, hasCont, byName, &result); err != nil {
		_, _ = parent.CompleteWithStatus(ctx, core.CompletionFailOnly)
		return result, err
	}
	if hasCont && len(cont.Alternatives) > 0 {
		e.svc.Trace().Notef(p.Name, "continuing with alternatives after compensation")
		if err := run.executeDAG(ctx, cont.Alternatives, &result); err != nil {
			_, _ = parent.CompleteWithStatus(ctx, core.CompletionFailOnly)
			return result, fmt.Errorf("%w: alternative: %v", ErrTaskFailed, err)
		}
		result.Ok = true
		if _, cerr := parent.CompleteWithStatus(ctx, core.CompletionSuccess); cerr != nil {
			return result, cerr
		}
		return result, nil
	}
	if _, cerr := parent.CompleteWithStatus(ctx, core.CompletionFail); cerr != nil {
		return result, cerr
	}
	return result, fmt.Errorf("%w: %s: %v", ErrTaskFailed, failure.task, failure.err)
}

// taskFailure carries the first failing task out of the scheduler loop.
type taskFailure struct {
	task string
	err  error
}

func (f *taskFailure) Error() string {
	return fmt.Sprintf("task %s: %v", f.task, f.err)
}

// processRun is the mutable state of one execution.
type processRun struct {
	engine *Engine
	parent *core.Activity
	events chan event
	stage  int
}

// executeDAG schedules tasks respecting dependencies, returning a
// *taskFailure on the first task failure.
func (r *processRun) executeDAG(ctx context.Context, tasks []Task, result *Result) error {
	if len(tasks) == 0 {
		return nil
	}
	waiting := make(map[string]*Task, len(tasks))
	depCount := make(map[string]int, len(tasks))
	dependents := make(map[string][]string)
	for i := range tasks {
		t := &tasks[i]
		waiting[t.Name] = t
		depCount[t.Name] = len(t.DependsOn)
		for _, d := range t.DependsOn {
			dependents[d] = append(dependents[d], t.Name)
		}
	}

	inflight := 0
	var failed *taskFailure
	schedule := func() error {
		// Declaration order, so a stage's start set enrols its tasks
		// the same way on every run.
		var ready []*Task
		for i := range tasks {
			t := &tasks[i]
			if waiting[t.Name] != nil && depCount[t.Name] == 0 {
				ready = append(ready, t)
			}
		}
		if len(ready) == 0 {
			return nil
		}
		for _, t := range ready {
			delete(waiting, t.Name)
		}
		inflight += len(ready)
		return r.startStage(ctx, ready)
	}
	if err := schedule(); err != nil {
		return err
	}
	if inflight == 0 {
		return fmt.Errorf("%w: no runnable tasks among %d", ErrCycle, len(tasks))
	}

	reported := make(map[string]bool, len(tasks))
	for inflight > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("workflow: cancelled: %w", ctx.Err())
		case ev := <-r.events:
			if reported[ev.task] {
				continue // duplicate delivery (at-least-once): drop
			}
			reported[ev.task] = true
			inflight--
			if !ev.ok {
				if failed == nil {
					failed = &taskFailure{task: ev.task, err: ev.err}
				}
				continue // stop scheduling, drain in-flight
			}
			result.Completed = append(result.Completed, ev.task)
			if failed == nil {
				for _, dep := range dependents[ev.task] {
					depCount[dep]--
				}
				if err := schedule(); err != nil {
					return err
				}
			}
		}
	}
	if failed != nil {
		return failed
	}
	if len(waiting) > 0 {
		return fmt.Errorf("%w: %d tasks unreachable", ErrCycle, len(waiting))
	}
	return nil
}

// startStage starts a group of ready tasks together through one start
// SignalSet, per the paper's stage convention.
func (r *processRun) startStage(ctx context.Context, stage []*Task) error {
	r.stage++
	setName := fmt.Sprintf("start-%d", r.stage)
	set := core.NewSequenceSet(setName, SignalStart).Collate(func(rs []core.Outcome) core.Outcome {
		return core.Outcome{Name: "started", Data: int64(len(rs))}
	})
	if err := r.parent.RegisterSignalSet(set); err != nil {
		return err
	}
	for _, t := range stage {
		t := t
		if _, err := r.parent.AddNamedAction(setName, t.Name, &startAction{run: r, task: t}); err != nil {
			return err
		}
	}
	if _, err := r.parent.Signal(ctx, setName); err != nil {
		return err
	}
	return nil
}

// startAction is a task controller's start half: on "start" it launches
// the task and acknowledges.
type startAction struct {
	run  *processRun
	task *Task
}

func (a *startAction) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	if sig.Name != SignalStart {
		return core.Outcome{}, fmt.Errorf("workflow: task %s got signal %q", a.task.Name, sig.Name)
	}
	go a.run.runTask(ctx, a.task)
	return core.Outcome{Name: OutcomeStartAck}, nil
}

// runTask executes one task inside a child activity and reports its
// outcome to the parent through the child's Completed SignalSet.
func (r *processRun) runTask(ctx context.Context, t *Task) {
	child, err := r.parent.BeginChild(t.Name)
	if err != nil {
		r.events <- event{task: t.Name, err: err}
		return
	}
	set := newCompletedSet(t.Name)
	if err := child.RegisterSignalSet(set); err != nil {
		r.events <- event{task: t.Name, err: err}
		return
	}
	child.SetCompletionSet(CompletedSetName)
	// The parent registers its outcome Action with the child — "Whenever a
	// child activity is started the parent activity registers an Action
	// with it that is used to deliver the outcome Signal to the parent."
	if _, err := child.AddNamedAction(CompletedSetName, r.parent.Name(), &outcomeAction{}); err != nil {
		r.events <- event{task: t.Name, err: err}
		return
	}

	runErr := t.Run(core.NewContext(ctx, child))
	cs := core.CompletionSuccess
	if runErr != nil {
		cs = core.CompletionFail
		r.engine.svc.Trace().Notef(t.Name, "%s aborts: %v", t.Name, runErr)
	}
	// Completion drives the child's Completed set, whose "outcome" signal
	// reaches the parent's outcomeAction. The scheduler event is emitted
	// only after completion fully returns — the outcome signal fires while
	// the child is still in the Completing state, and scheduling off it
	// directly would let the parent observe a not-yet-Completed child.
	if _, err := child.CompleteWithStatus(ctx, cs); err != nil {
		r.events <- event{task: t.Name, err: err}
		return
	}
	ev := event{task: t.Name, ok: runErr == nil}
	if runErr != nil {
		ev.err = fmt.Errorf("%w: %s: %v", ErrTaskFailed, t.Name, runErr)
	}
	r.events <- ev
}

// newCompletedSet returns the child's Completed SignalSet: one "outcome"
// signal whose data carries the task name and success flag.
func newCompletedSet(task string) *core.SequenceSet {
	outcome := func(ok bool) core.Signal {
		return core.Signal{Name: SignalOutcome, Data: map[string]any{"task": task, "ok": ok}}
	}
	return core.NewSequenceSet(CompletedSetName).
		Signals(outcome(true)).
		OnFailure(outcome(false)).
		Outcomes("success", "failure")
}

// outcomeAction is the parent's half of the protocol: it acknowledges the
// child's "outcome" signal (fig. 10's outcome/outcome_ack pair). The
// scheduler is notified separately by runTask once the child's completion
// has fully finished.
type outcomeAction struct{}

func (a *outcomeAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	if sig.Name != SignalOutcome {
		return core.Outcome{}, fmt.Errorf("workflow: outcome action got %q", sig.Name)
	}
	if _, ok := sig.Data.(map[string]any); !ok {
		return core.Outcome{}, fmt.Errorf("workflow: outcome signal without payload")
	}
	return core.Outcome{Name: OutcomeOutcomeAck}, nil
}

// compensate runs the continuation's compensations (fig. 2's tc1) as
// fresh child activities of the process activity.
func (r *processRun) compensate(ctx context.Context, cont Continuation, hasCont bool, byName map[string]*Task, result *Result) error {
	var names []string
	if hasCont && cont.Compensate != nil {
		names = cont.Compensate
	} else {
		// Default: every completed task with a compensation, reverse
		// completion order.
		for i := len(result.Completed) - 1; i >= 0; i-- {
			name := result.Completed[i]
			if t, ok := byName[name]; ok && t.Compensate != nil {
				names = append(names, name)
			}
		}
	}
	for _, name := range names {
		t, ok := byName[name]
		if !ok || t.Compensate == nil {
			return fmt.Errorf("workflow: no compensation for task %q", name)
		}
		r.engine.svc.Trace().Notef(r.parent.Name(), "compensating %s (tc:%s)", name, name)
		ca, err := r.parent.BeginChild("tc:" + name)
		if err != nil {
			return err
		}
		cerr := t.Compensate(core.NewContext(ctx, ca))
		cs := core.CompletionSuccess
		if cerr != nil {
			cs = core.CompletionFail
		}
		if _, err := ca.CompleteWithStatus(ctx, cs); err != nil {
			return err
		}
		if cerr != nil {
			return fmt.Errorf("workflow: compensation of %s: %w", name, cerr)
		}
		result.Compensated = append(result.Compensated, name)
	}
	return nil
}
