package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo identifies the machine and source a result was measured on:
// results from unlike hosts or sources are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit run.sh passes in E2EBENCH_COMMIT or, outside
// a git checkout, "src-" and a digest of the module's Go sources.
func commit() string {
	if c := os.Getenv("E2EBENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "e2ebench"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
				return nil // unreadable entries are left out of the digest
			}
			b, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
			return nil
		})
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
