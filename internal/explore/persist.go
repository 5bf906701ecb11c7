package explore

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
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
	reduce := ""
	if s.Reduce != run.ReduceOff {
		reduce = s.Reduce.String()
	}
	return store.Manifest{
		Engine:          "explore.Engine",
		Exec:            run.ExecForm,
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
// opens the run store in Resume (refusing mismatched settings with
// store.ErrMismatch), or creates one in CheckpointDir — Resume wins over
// CheckpointDir, so one option list can create a run and later resume it.
// TraceDir opens a tracer. Every manifest and trace header carries
// run.MetaFromSettings(s). Close releases what Attach opened.
func (e *Engine) Attach(s *run.Settings) error {
	switch {
	case s.Resume != "":
		m, err := ManifestFor(s, e.Exhaustive)
		if err != nil {
			return err
		}
		st, err := store.Open(s.Resume)
		if err != nil {
			return err
		}
		if err := verifyManifest(st, m); err != nil {
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

// verifyManifest checks that the run directory's stored manifest describes
// the exploration m does (store.ErrMismatch otherwise). A manifest recording
// a removed mode is refused as a mismatch that names the mode
// (run.ErrRemovedMode), not as two differing hashes. So is a directory the
// removed multi-process work ledger wrote: it holds a manifest and a ledger/
// subdirectory but never a checkpoint, so resuming it would silently
// restart from the root.
func verifyManifest(st *store.Store, m store.Manifest) error {
	stored := st.Manifest()
	err := run.CheckModes(stored.Exec, stored.Reduce)
	if _, serr := os.Stat(filepath.Join(st.Dir(), "ledger")); serr == nil {
		err = fmt.Errorf("%w: the multi-process work ledger is no longer supported (only a run created with -checkpoint resumes)", run.ErrRemovedMode)
	}
	if err != nil {
		return fmt.Errorf("%w in %s: %w", store.ErrMismatch, st.Dir(), err)
	}
	return st.Verify(m)
}
