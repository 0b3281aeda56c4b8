package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mct/api"
	"mct/internal/atomicfile"
)

// store is the daemon's durable state: one directory per job under
// <dir>/jobs/<id>/ holding
//
//	spec.json      the submitted JobSpec (wire form, immutable)
//	status.json    the last persisted JobStatus
//	artifact.json  the artifact document, written once on completion
//	machine.ckpt   Execute's evaluate-job machine checkpoint (while running)
//	partial.json   Execute's sweep artifact cut to its completed prefix (while running)
//
// and one directory <dir>/sweepcache/ that every experiment job shares: the
// disk layer of its sweep cache, so completed sweeps outlive the job and
// the process.
//
// Every write is atomic (temp file + rename in the same directory), so a
// kill -9 can lose at most the work since the last chunk — never corrupt
// what a restarted server reads back.
type store struct {
	dir string
}

func openStore(dir string) (*store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	return &store{dir: dir}, nil
}

func (st *store) jobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// checkpoints is the persistence Execute gets for job id.
func (st *store) checkpoints(id string) *Checkpoints {
	return &Checkpoints{Dir: st.jobDir(id), SweepDir: filepath.Join(st.dir, "sweepcache")}
}

func (st *store) createJob(id string, spec api.JobSpec) error {
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(st.jobDir(id), "spec.json"), api.Encode(spec))
}

func (st *store) writeStatus(status api.JobStatus) error {
	return atomicfile.Write(filepath.Join(st.jobDir(status.ID), "status.json"), api.Encode(status))
}

func (st *store) writeArtifact(id string, artifact []byte) error {
	return atomicfile.Write(filepath.Join(st.jobDir(id), "artifact.json"), artifact)
}

func (st *store) readArtifact(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.jobDir(id), "artifact.json"))
}

// jobRecord is one job read back at startup.
type jobRecord struct {
	spec   api.JobSpec
	status api.JobStatus
}

// load reads every job directory back, in ID order (IDs are zero-padded
// sequence numbers, so lexicographic order is submission order). A job
// directory whose spec or status does not parse is an error: durable state
// must never be silently dropped.
func (st *store) load() ([]jobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	var out []jobRecord
	for _, id := range ids {
		specData, err := os.ReadFile(filepath.Join(st.jobDir(id), "spec.json"))
		if err != nil {
			return nil, fmt.Errorf("server: job %s: %w", id, err)
		}
		spec, err := api.DecodeJobSpec(specData)
		if err != nil {
			return nil, fmt.Errorf("server: job %s: %w", id, err)
		}
		statusData, err := os.ReadFile(filepath.Join(st.jobDir(id), "status.json"))
		if err != nil {
			return nil, fmt.Errorf("server: job %s: %w", id, err)
		}
		status, err := api.DecodeJobStatus(statusData)
		if err != nil {
			return nil, fmt.Errorf("server: job %s: %w", id, err)
		}
		out = append(out, jobRecord{spec: spec, status: status})
	}
	return out, nil
}

// nextID returns the first unused zero-padded job ID after the loaded
// records.
func nextID(records []jobRecord) int {
	max := 0
	for _, r := range records {
		var n int
		if _, err := fmt.Sscanf(strings.TrimPrefix(r.status.ID, "j"), "%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

func jobID(n int) string { return fmt.Sprintf("j%06d", n) }
