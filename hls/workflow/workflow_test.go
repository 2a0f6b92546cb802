package workflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/trace"
)

// journal records task executions thread-safely.
type journal struct {
	mu      sync.Mutex
	entries []string
}

func (j *journal) add(s string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, s)
}

func (j *journal) Entries() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.entries...)
}

func (j *journal) Index(s string) int {
	for i, e := range j.Entries() {
		if e == s {
			return i
		}
	}
	return -1
}

func task(j *journal, name string, deps []string, fail bool) Task {
	return Task{
		Name:      name,
		DependsOn: deps,
		Run: func(context.Context) error {
			if fail {
				return errors.New(name + " failed")
			}
			j.add("run:" + name)
			return nil
		},
		Compensate: func(context.Context) error {
			j.add("undo:" + name)
			return nil
		},
	}
}

func TestSequentialChainFig1(t *testing.T) {
	// Fig. 1: t1 → t2 → … → t6, each a short unit of work.
	svc := core.New()
	j := &journal{}
	tasks := []Task{task(j, "t1", nil, false)}
	for i := 2; i <= 6; i++ {
		tasks = append(tasks, task(j, tName(i), []string{tName(i - 1)}, false))
	}
	res, err := New(svc).Execute(context.Background(), Process{Name: "booking", Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || len(res.Completed) != 6 {
		t.Fatalf("result = %+v", res)
	}
	want := []string{"run:t1", "run:t2", "run:t3", "run:t4", "run:t5", "run:t6"}
	got := j.Entries()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries = %v", got)
		}
	}
	if svc.Live() != 0 {
		t.Fatalf("live activities = %d", svc.Live())
	}
}

func tName(i int) string {
	return "t" + string(rune('0'+i))
}

func TestFig10ParallelThenJoin(t *testing.T) {
	// Fig. 10: a coordinates the parallel execution of b and c followed
	// by d.
	svc := core.New()
	j := &journal{}
	p := Process{
		Name: "a",
		Tasks: []Task{
			task(j, "b", nil, false),
			task(j, "c", nil, false),
			task(j, "d", []string{"b", "c"}, false),
		},
	}
	res, err := New(svc).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("result = %+v", res)
	}
	// b and c in either order, both before d.
	di := j.Index("run:d")
	if di < 0 || j.Index("run:b") > di || j.Index("run:c") > di {
		t.Fatalf("entries = %v", j.Entries())
	}
}

func TestFig10SignalTrace(t *testing.T) {
	// The coordination messages of fig. 10: start/start_ack for b, c and
	// d, and outcome/outcome_ack from each child back to a.
	rec := trace.New()
	svc := core.New(core.WithTrace(rec))
	j := &journal{}
	p := Process{
		Name: "a",
		Tasks: []Task{
			task(j, "b", nil, false),
			task(j, "c", nil, false),
			task(j, "d", []string{"b", "c"}, false),
		},
	}
	if _, err := New(svc).Execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	seq := rec.Sequence()
	counts := map[string]int{}
	for _, s := range seq {
		switch {
		case strings.HasPrefix(s, "transmit:a->") && strings.HasSuffix(s, ":start"):
			counts["start"]++
		case strings.Contains(s, ":start_ack"):
			counts["start_ack"]++
		case strings.HasPrefix(s, "set_response:a->") && strings.HasSuffix(s, ":outcome_ack"):
			counts["outcome_ack"]++
		case strings.HasSuffix(s, ":outcome") && strings.HasPrefix(s, "transmit:"):
			counts["outcome"]++
		}
	}
	for _, k := range []string{"start", "start_ack", "outcome", "outcome_ack"} {
		if counts[k] != 3 {
			t.Fatalf("%s count = %d, want 3\ntrace:\n%s", k, counts[k], strings.Join(seq, "\n"))
		}
	}
}

func TestStageGrouping(t *testing.T) {
	// t2 and t3 start together (same SignalSet); t4 separately — assert
	// via the stage set names in the trace.
	rec := trace.New()
	svc := core.New(core.WithTrace(rec))
	j := &journal{}
	p := Process{
		Name: "app",
		Tasks: []Task{
			task(j, "t1", nil, false),
			task(j, "t2", []string{"t1"}, false),
			task(j, "t3", []string{"t1"}, false),
			task(j, "t4", []string{"t2", "t3"}, false),
		},
	}
	if _, err := New(svc).Execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	// The start set a task acknowledged identifies its stage.
	stageOf := map[string]string{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindResponse && e.Signal == OutcomeStartAck {
			stageOf[e.Source] = e.Target // task -> start set name
		}
	}
	if stageOf["t2"] != stageOf["t3"] {
		t.Fatalf("t2 and t3 in different stages: %v", stageOf)
	}
	if stageOf["t4"] == stageOf["t2"] || stageOf["t4"] == stageOf["t1"] {
		t.Fatalf("t4 shares a stage: %v", stageOf)
	}
}

// TestStageEnrolsInDeclarationOrder: a stage's start set enrols its
// ready tasks in declaration order, so the traced start transmits of
// independent tasks come out the same way on every run.
func TestStageEnrolsInDeclarationOrder(t *testing.T) {
	want := []string{"c", "a", "d", "b"}
	for run := 0; run < 20; run++ {
		rec := trace.New()
		svc := core.New(core.WithTrace(rec))
		j := &journal{}
		p := Process{Name: "app"}
		for _, name := range want {
			p.Tasks = append(p.Tasks, task(j, name, nil, false))
		}
		if _, err := New(svc).Execute(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range rec.Events() {
			if e.Kind == trace.KindTransmit && e.Signal == SignalStart {
				got = append(got, e.Target)
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d: start-1 transmits to %v, want declaration order %v", run, got, want)
		}
	}
}

func TestFig2FailureCompensationAlternatives(t *testing.T) {
	// Fig. 2: t4 aborts → tc1 compensates t2 → alternatives t5', t6'.
	svc := core.New()
	j := &journal{}
	alt5 := Task{Name: "t5'", Run: func(context.Context) error { j.add("run:t5'"); return nil }}
	alt6 := Task{Name: "t6'", DependsOn: []string{"t5'"},
		Run: func(context.Context) error { j.add("run:t6'"); return nil }}
	p := Process{
		Name: "booking",
		Tasks: []Task{
			task(j, "t1", nil, false),
			task(j, "t2", []string{"t1"}, false),
			task(j, "t3", []string{"t2"}, false),
			task(j, "t4", []string{"t3"}, true), // aborts
		},
		OnFailure: map[string]Continuation{
			"t4": {
				Compensate:   []string{"t2"},
				Alternatives: []Task{alt5, alt6},
			},
		},
	}
	res, err := New(svc).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || res.Failed != "t4" {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Compensated) != 1 || res.Compensated[0] != "t2" {
		t.Fatalf("compensated = %v", res.Compensated)
	}
	got := j.Entries()
	want := []string{"run:t1", "run:t2", "run:t3", "undo:t2", "run:t5'", "run:t6'"}
	if len(got) != len(want) {
		t.Fatalf("entries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries = %v, want %v", got, want)
		}
	}
}

func TestDefaultCompensationReverseOrder(t *testing.T) {
	svc := core.New()
	j := &journal{}
	p := Process{
		Name: "chain",
		Tasks: []Task{
			task(j, "t1", nil, false),
			task(j, "t2", []string{"t1"}, false),
			task(j, "t3", []string{"t2"}, true),
		},
	}
	res, err := New(svc).Execute(context.Background(), p)
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v", err)
	}
	if res.Ok {
		t.Fatal("result ok despite failure")
	}
	got := j.Entries()
	want := []string{"run:t1", "run:t2", "undo:t2", "undo:t1"}
	if len(got) != len(want) {
		t.Fatalf("entries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries = %v", got)
		}
	}
}

func TestParallelFailureDrainsInflight(t *testing.T) {
	svc := core.New()
	j := &journal{}
	block := make(chan struct{})
	slow := Task{Name: "slow", Run: func(context.Context) error {
		<-block
		j.add("run:slow")
		return nil
	}}
	p := Process{
		Name:  "race",
		Tasks: []Task{slow, task(j, "fast-fail", nil, true)},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := New(svc).Execute(context.Background(), p)
		if errors.Is(err, ErrTaskFailed) && res.Failed != "fast-fail" {
			t.Errorf("failed = %q", res.Failed)
		}
	}()
	close(block)
	<-done
	// slow completed even though fast-fail aborted first or concurrently.
	if j.Index("run:slow") < 0 {
		t.Fatalf("entries = %v", j.Entries())
	}
}

func TestUnknownDependencyRejected(t *testing.T) {
	svc := core.New()
	p := Process{Name: "bad", Tasks: []Task{{Name: "x", DependsOn: []string{"ghost"},
		Run: func(context.Context) error { return nil }}}}
	if _, err := New(svc).Execute(context.Background(), p); !errors.Is(err, ErrUnknownDependency) {
		t.Fatalf("err = %v", err)
	}
}

func TestCycleRejected(t *testing.T) {
	svc := core.New()
	noop := func(context.Context) error { return nil }
	p := Process{Name: "cycle", Tasks: []Task{
		{Name: "a", DependsOn: []string{"b"}, Run: noop},
		{Name: "b", DependsOn: []string{"a"}, Run: noop},
	}}
	if _, err := New(svc).Execute(context.Background(), p); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	svc := core.New()
	noop := func(context.Context) error { return nil }
	p := Process{Name: "dup", Tasks: []Task{{Name: "x", Run: noop}, {Name: "x", Run: noop}}}
	if _, err := New(svc).Execute(context.Background(), p); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestCompensationFailureSurfaces(t *testing.T) {
	svc := core.New()
	p := Process{
		Name: "broken-undo",
		Tasks: []Task{
			{Name: "t1",
				Run:        func(context.Context) error { return nil },
				Compensate: func(context.Context) error { return errors.New("cannot undo") }},
			{Name: "t2", DependsOn: []string{"t1"},
				Run: func(context.Context) error { return errors.New("boom") }},
		},
	}
	_, err := New(svc).Execute(context.Background(), p)
	if err == nil || !strings.Contains(err.Error(), "cannot undo") {
		t.Fatalf("err = %v", err)
	}
}

func TestWideFanOut(t *testing.T) {
	svc := core.New()
	j := &journal{}
	var tasks []Task
	for i := 0; i < 32; i++ {
		tasks = append(tasks, task(j, "w"+string(rune('A'+i)), nil, false))
	}
	tasks = append(tasks, Task{Name: "join", DependsOn: names(tasks),
		Run: func(context.Context) error { j.add("run:join"); return nil }})
	res, err := New(svc).Execute(context.Background(), Process{Name: "fan", Tasks: tasks})
	if err != nil || !res.Ok {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	entries := j.Entries()
	if entries[len(entries)-1] != "run:join" {
		t.Fatalf("join ran early: %v", entries[len(entries)-5:])
	}
}

func names(tasks []Task) []string {
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = t.Name
	}
	return out
}

func TestTasksRunInsideChildActivities(t *testing.T) {
	svc := core.New()
	var parentName string
	var mu sync.Mutex
	p := Process{Name: "proc", Tasks: []Task{{
		Name: "probe",
		Run: func(ctx context.Context) error {
			if a, ok := core.FromContext(ctx); ok {
				mu.Lock()
				parentName = a.Parent().Name()
				mu.Unlock()
			}
			return nil
		},
	}}}
	if _, err := New(svc).Execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if parentName != "proc" {
		t.Fatalf("parent = %q", parentName)
	}
}
