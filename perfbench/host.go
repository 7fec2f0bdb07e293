package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostStamp describes where and how a run was made; it is printed with
// every result and written into every trace.
type hostStamp struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	CPU        string   `json:"cpu"`
	Commit     string   `json:"commit"`
	Conns      int      `json:"conns"`
	Flags      []string `json:"flags,omitempty"`
}

func stamp(workload string, seed int64, conns int) hostStamp {
	h := hostStamp{
		Workload:   workload,
		Seed:       seed,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Conns:      conns,
	}
	if h.GOMAXPROCS > h.Nproc {
		h.Flags = append(h.Flags, "gomaxprocs_above_nproc")
	}
	if h.Conns > h.Nproc {
		h.Flags = append(h.Flags, "conns_above_nproc")
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// commit is the VCS revision the binary was built from, when the build
// saw one; a checkout without version control reports "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
