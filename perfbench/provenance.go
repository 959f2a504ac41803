package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance is printed before the result and written into every
// trace file, so that a claim can be re-checked on another seed with
// the same code and settings.
type provenance struct {
	Commit string `json:"commit"`
	// SourceSHA256 hashes every .go and go.mod file of the tree the
	// benchmark was built from; it identifies the code when the
	// checkout has no git metadata.
	SourceSHA256 string `json:"source_sha256"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	StepsPerRun  int    `json:"steps_per_run"`
	WorkUnit     string `json:"work_unit"`
	Loop         string `json:"loop"`
}

func newProvenance(commit string, seed int64, w workload, steps int) provenance {
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Commit:       commit,
		SourceSHA256: sourceDigest("."),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Workload:     w.name,
		Seed:         seed,
		StepsPerRun:  steps,
		WorkUnit:     w.unit,
		Loop:         "closed, 1 client",
	}
}

// sourceDigest hashes the path and content of every Go source and
// go.mod file under root, skipping dot directories (build output,
// VCS metadata). It returns "" if the tree cannot be read.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
