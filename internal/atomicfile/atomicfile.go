// Package atomicfile writes files that readers never observe torn.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write writes data to path through a uniquely named temp file in path's
// directory and a rename. A reader, or a process restarted after this one
// was killed, sees either the previous file or the complete new one;
// concurrent writers of one path never share a temp file, and the last
// rename wins. The file is not synced, so a power loss may still lose it.
// The directory must exist. On failure the temp file is removed.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //mctlint:ignore uncheckederr best-effort cleanup; the write, close or rename error is the one worth reporting
	}
	return err
}
