package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuTime returns the user+system CPU time pid has used so far. For the
// benchmark's own process it uses getrusage, which has microsecond
// resolution; other processes are read from /proc in clock ticks.
func cpuTime(pid int) (time.Duration, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssBytes returns pid's resident set size.
func rssBytes(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmRSS:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				kb, err := strconv.ParseInt(fs[1], 10, 64)
				if err != nil {
					return 0, err
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// stamp ties a result file to the machine, toolchain, source tree, seed
// and descriptions that produced it.
type stamp struct {
	Nproc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	CPUModel     string            `json:"cpu_model"`
	GoVersion    string            `json:"go_version"`
	Commit       string            `json:"commit"`
	SourceDigest string            `json:"source_digest"`
	Seed         int64             `json:"seed"`
	Workload     string            `json:"workload"`
	Trace        bool              `json:"trace"`
	Seconds      int               `json:"seconds"`
	Fingerprints map[string]string `json:"fingerprints"`
	Generated    string            `json:"generated_at"`
}

func newStamp(o *options) stamp {
	return stamp{
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(o.root),
		Seed:         o.seed,
		Workload:     o.workload,
		Trace:        o.trace,
		Seconds:      o.seconds,
		Fingerprints: map[string]string{},
		Generated:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one (a build outside a git checkout does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the exact tree it measured even without a commit.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		_, _ = io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
