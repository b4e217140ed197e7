package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostFacts stamps every result. Two results are comparable only when
// their hosts agree (see sameHost); the source digest identifies the code
// even where the checkout carries no version-control metadata.
type hostFacts struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
}

func (h hostFacts) String() string {
	return fmt.Sprintf("commit=%s source=%s go=%s GOMAXPROCS=%d nproc=%d",
		h.Commit, h.Source, h.GoVersion, h.GOMAXPROCS, h.NProc)
}

// sameHost reports whether results stamped a and b came from the same
// machine configuration and toolchain.
func sameHost(a, b hostFacts) bool {
	return a.GoVersion == b.GoVersion && a.GOMAXPROCS == b.GOMAXPROCS && a.NProc == b.NProc
}

func stampHost() (hostFacts, error) {
	h := hostFacts{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		return h, fmt.Errorf("source digest: %w", err)
	}
	h.Source = src
	return h, nil
}

// sourceDigest hashes every Go source and module file under root (names
// and contents, in path order), skipping hidden directories.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16], nil
}
