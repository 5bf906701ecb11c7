package explore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/run"
	"repro/internal/store"
)

// ManifestFor renders an exploration's verdict-relevant settings as a run
// manifest — the identity a run directory is bound to. Two explorations with
// equal manifests (by store.Manifest.Hash) enumerate the same execution
// tree, so resuming one from the other's checkpoint is sound; everything
// else (worker count, dedup, execution cap) is recorded as advisory metadata
// only. Extra carries run.MetaFromSettings, unhashed, so the run directory
// alone reconstructs the settings.
func ManifestFor(s *run.Settings, exhaustive bool) (store.Manifest, error) {
	if s.Protocol == nil {
		return store.Manifest{}, fmt.Errorf("explore: no protocol")
	}
	kind := s.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	compiled, err := run.ResolveExec(s.Exec, s.Protocol)
	if err != nil {
		return store.Manifest{}, err
	}
	reduce := ""
	if s.Reduce != run.ReduceOff {
		reduce = s.Reduce.String()
	}
	return store.Manifest{
		Engine:          "explore.Engine",
		Exec:            run.ExecLabel(compiled),
		Reduce:          reduce,
		Protocol:        s.Protocol.Name(),
		Objects:         s.Protocol.Objects(),
		Inputs:          s.Inputs,
		FaultyObjects:   s.FaultyObjects,
		FaultsPerObject: s.FaultsPerObject,
		Kind:            kind.String(),
		StepLimit:       s.StepLimit,
		Exhaustive:      exhaustive,
		MaxExecutions:   s.MaxExecutions,
		Dedup:           s.Dedup,
		Extra:           run.MetaFromSettings(s),
	}, nil
}

// Attach connects the engine to the durable state the settings name: it
// joins the work ledger in LedgerDir, or opens the run store in Resume
// (refusing mismatched settings with store.ErrMismatch), or creates one in
// CheckpointDir — Resume wins over CheckpointDir, so one option list can
// create a run and later resume it. TraceDir opens a tracer. Every manifest
// and trace header carries run.MetaFromSettings(s). Close releases what
// Attach opened.
func (e *Engine) Attach(s *run.Settings) error {
	switch {
	case s.LedgerDir != "":
		if s.Resume != "" || s.CheckpointDir != "" {
			return fmt.Errorf("explore: the work ledger is the durable state of a distributed run; it cannot be combined with checkpointing or resume")
		}
		l, err := JoinLedger(s, e.Exhaustive)
		if err != nil {
			return err
		}
		e.Ledger = l
	case s.Resume != "":
		m, err := ManifestFor(s, e.Exhaustive)
		if err != nil {
			return err
		}
		st, err := store.Open(s.Resume)
		if err != nil {
			return err
		}
		if err := st.Verify(m); err != nil {
			st.Close()
			return err
		}
		e.Store = st
	case s.CheckpointDir != "":
		m, err := ManifestFor(s, e.Exhaustive)
		if err != nil {
			return err
		}
		st, err := store.Create(s.CheckpointDir, m)
		if err != nil {
			return err
		}
		e.Store = st
	}
	if s.TraceDir != "" {
		tr, err := NewTracer(s.TraceDir, s.TraceSample, run.MetaFromSettings(s))
		if err != nil {
			e.Close()
			return err
		}
		e.Tracer = tr
	}
	return nil
}

// Close seals the tracer and releases the run store's owner lock, so a
// later process (or a resume) is not refused while this one lingers.
func (e *Engine) Close() error {
	err := e.Tracer.Close()
	if e.Store != nil {
		if cerr := e.Store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// WorkerIDFor returns the effective ledger participant id for the settings:
// the configured WorkerID, or the canonical "host:pid" default.
func WorkerIDFor(s *run.Settings) string {
	if s.WorkerID != "" {
		return s.WorkerID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// JoinLedger joins (or creates) the work ledger in s.LedgerDir and binds the
// run directory to these settings: the first participant commits a manifest
// carrying the ledger epoch; every later participant must present identical
// settings and is refused (store.ErrMismatch) otherwise — two processes
// silently sweeping different execution spaces into one ledger would merge
// to garbage.
func JoinLedger(s *run.Settings, exhaustive bool) (*ledger.Ledger, error) {
	m, err := ManifestFor(s, exhaustive)
	if err != nil {
		return nil, err
	}
	l, _, err := ledger.Join(s.LedgerDir, WorkerIDFor(s), s.LeaseTTL)
	if err != nil {
		return nil, err
	}
	m.LedgerEpoch = l.Epoch()
	st, err := store.CreateShared(s.LedgerDir, m)
	if errors.Is(err, fs.ErrExist) {
		if st, err = store.OpenShared(s.LedgerDir); err != nil {
			return nil, err
		}
		if verr := st.Verify(m); verr != nil {
			st.Close()
			return nil, verr
		}
	} else if err != nil {
		return nil, err
	}
	st.Close()
	return l, nil
}
