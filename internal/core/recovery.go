package core

import (
	"fmt"
	"sort"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Log record kinds used by the activity journal. They share the wal with
// the transaction service's records (disjoint kind ranges).
const (
	// RecordBegun journals an activity starting: id, parent id, name.
	RecordBegun wal.Kind = 0x21
	// RecordStatus journals a completion-status change.
	RecordStatus wal.Kind = 0x22
	// RecordSetReg journals a recoverable SignalSet registration.
	RecordSetReg wal.Kind = 0x23
	// RecordActionReg journals a recoverable Action registration.
	RecordActionReg wal.Kind = 0x24
	// RecordCompleted journals an activity's completion and outcome.
	RecordCompleted wal.Kind = 0x25
)

// journal persists activity structure events. A nil journal (no WithJournal
// option) makes every method a no-op: journaling is strictly opt-in.
// Journal writes are best-effort; the application drives recovery and can
// tolerate a truncated tail (§3.4: recovery is predominately the
// application's responsibility).
type journal struct {
	log *wal.Log
}

func (j *journal) begun(id, parent ids.UID, name string) {
	if j == nil {
		return
	}
	e := cdr.NewEncoder(64)
	e.WriteRaw(id[:])
	e.WriteRaw(parent[:])
	e.WriteString(name)
	_, _ = j.log.Append(RecordBegun, e.Bytes())
}

func (j *journal) statusSet(id ids.UID, cs CompletionStatus) {
	if j == nil {
		return
	}
	e := cdr.NewEncoder(24)
	e.WriteRaw(id[:])
	e.WriteOctet(byte(cs))
	_, _ = j.log.Append(RecordStatus, e.Bytes())
}

func (j *journal) setRegistered(id ids.UID, factory string, params []byte) {
	if j == nil {
		return
	}
	e := cdr.NewEncoder(64)
	e.WriteRaw(id[:])
	e.WriteString(factory)
	e.WriteBytes(params)
	_, _ = j.log.Append(RecordSetReg, e.Bytes())
}

func (j *journal) actionRegistered(id ids.UID, setName, factory string, params []byte) {
	if j == nil {
		return
	}
	e := cdr.NewEncoder(64)
	e.WriteRaw(id[:])
	e.WriteString(setName)
	e.WriteString(factory)
	e.WriteBytes(params)
	_, _ = j.log.Append(RecordActionReg, e.Bytes())
}

func (j *journal) completed(id ids.UID, cs CompletionStatus, outcomeName string) {
	if j == nil {
		return
	}
	e := cdr.NewEncoder(48)
	e.WriteRaw(id[:])
	e.WriteOctet(byte(cs))
	e.WriteString(outcomeName)
	_, _ = j.log.Append(RecordCompleted, e.Bytes())
}

// RegisterRecoverableSignalSet creates a SignalSet through the service's
// named factory, registers it with the activity and journals the
// registration so recovery can recreate it.
func (a *Activity) RegisterRecoverableSignalSet(factoryName string, params []byte) (SignalSet, error) {
	f, err := a.svc.signalSetFactory(factoryName)
	if err != nil {
		return nil, err
	}
	set, err := f(params)
	if err != nil {
		return nil, fmt.Errorf("core: signal set factory %q: %w", factoryName, err)
	}
	if err := a.RegisterSignalSet(set); err != nil {
		return nil, err
	}
	a.svc.journal.setRegistered(a.id, factoryName, params)
	return set, nil
}

// AddRecoverableAction creates an Action through the service's named
// factory, registers it with the named set and journals the registration.
func (a *Activity) AddRecoverableAction(setName, factoryName string, params []byte) error {
	f, err := a.svc.actionFactory(factoryName)
	if err != nil {
		return err
	}
	action, err := f(params)
	if err != nil {
		return fmt.Errorf("core: action factory %q: %w", factoryName, err)
	}
	if _, err := a.AddAction(setName, action); err != nil {
		return err
	}
	a.svc.journal.actionRegistered(a.id, setName, factoryName, params)
	return nil
}

// recoveredRecord accumulates one activity's journaled history.
type recoveredRecord struct {
	id        ids.UID
	parent    ids.UID
	name      string
	cs        CompletionStatus
	completed bool
	sets      []recoveredSet
	actions   []recoveredAction
	order     int
}

type recoveredSet struct {
	factory string
	params  []byte
}

type recoveredAction struct {
	setName string
	factory string
	params  []byte
}

// Recover rebuilds the in-flight activity tree from the journal: every
// activity begun but not completed is recreated (in begin order, so parents
// precede children) with its journaled completion status, recoverable
// SignalSets and recoverable Actions. It returns the recovered root
// activities; per §3.4 it is then the application's logic that drives them
// to completion.
func (s *Service) Recover(log *wal.Log) ([]*Activity, error) {
	records := make(map[ids.UID]*recoveredRecord)
	order := 0
	err := log.Replay(func(r wal.Record) error {
		d := cdr.NewDecoder(r.Data)
		var id ids.UID
		readUID := func() ids.UID {
			var u ids.UID
			for i := 0; i < len(u); i++ {
				u[i] = d.ReadOctet()
			}
			return u
		}
		switch r.Kind {
		case RecordBegun:
			id = readUID()
			parent := readUID()
			name := d.ReadString()
			if err := d.Err(); err != nil {
				return fmt.Errorf("core: corrupt begun record: %w", err)
			}
			order++
			records[id] = &recoveredRecord{
				id: id, parent: parent, name: name,
				cs: CompletionSuccess, order: order,
			}
		case RecordStatus:
			id = readUID()
			cs := CompletionStatus(d.ReadOctet())
			if rec, ok := records[id]; ok && d.Err() == nil {
				rec.cs = cs
			}
		case RecordSetReg:
			id = readUID()
			factory := d.ReadString()
			// Clone: the params outlive the replay callback (and with it any
			// reuse of the record's buffer by the journal).
			params := d.ReadBytesClone()
			if rec, ok := records[id]; ok && d.Err() == nil {
				rec.sets = append(rec.sets, recoveredSet{factory: factory, params: params})
			}
		case RecordActionReg:
			id = readUID()
			setName := d.ReadString()
			factory := d.ReadString()
			params := d.ReadBytesClone() // retained past the replay callback
			if rec, ok := records[id]; ok && d.Err() == nil {
				rec.actions = append(rec.actions, recoveredAction{setName: setName, factory: factory, params: params})
			}
		case RecordCompleted:
			id = readUID()
			if rec, ok := records[id]; ok && d.Err() == nil {
				rec.completed = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Rebuild in begin order so parents exist before children.
	pending := make([]*recoveredRecord, 0, len(records))
	for _, rec := range records {
		if !rec.completed {
			pending = append(pending, rec)
		}
	}
	sortRecoveredByOrder(pending)

	rebuilt := make(map[ids.UID]*Activity, len(pending))
	var roots []*Activity
	for _, rec := range pending {
		// A nil parent — including one whose parent completed before the
		// crash — makes this activity a root of the recovered forest.
		var parent *Activity
		if !rec.parent.IsNil() {
			parent = rebuilt[rec.parent]
		}
		a := s.newActivity(rec.name, parent, withID(rec.id))
		a.mu.Lock()
		a.cs = rec.cs
		a.mu.Unlock()
		if parent != nil {
			parent.mu.Lock()
			put(&parent.children, a.id, a)
			parent.mu.Unlock()
		} else {
			roots = append(roots, a)
		}
		rebuilt[rec.id] = a

		for _, rs := range rec.sets {
			f, ferr := s.signalSetFactory(rs.factory)
			if ferr != nil {
				return nil, fmt.Errorf("core: recover %s: %w", rec.name, ferr)
			}
			set, serr := f(rs.params)
			if serr != nil {
				return nil, fmt.Errorf("core: recover %s: factory %q: %w", rec.name, rs.factory, serr)
			}
			if rerr := a.RegisterSignalSet(set); rerr != nil {
				return nil, rerr
			}
		}
		for _, ra := range rec.actions {
			f, ferr := s.actionFactory(ra.factory)
			if ferr != nil {
				return nil, fmt.Errorf("core: recover %s: %w", rec.name, ferr)
			}
			action, aerr := f(ra.params)
			if aerr != nil {
				return nil, fmt.Errorf("core: recover %s: factory %q: %w", rec.name, ra.factory, aerr)
			}
			if _, rerr := a.AddAction(ra.setName, action); rerr != nil {
				return nil, rerr
			}
		}
	}
	return roots, nil
}

func sortRecoveredByOrder(recs []*recoveredRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].order < recs[j].order })
}
