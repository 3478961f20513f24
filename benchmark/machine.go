package main

import (
	"os"
	"runtime"
	"strings"
)

// machineFacts is what a trace records about where it was taken.
type machineFacts struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	// Caches maps a cache level ("L1d", "L2", "L3") to its size as the
	// kernel reports it for cpu0, e.g. "4096K".
	Caches map[string]string `json:"caches"`
	// Commit is the checked-out commit when the tree is a git clone, else
	// empty: the driver's checkout is not a repository.
	Commit string `json:"commit"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func machine() machineFacts {
	m := machineFacts{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Caches:     map[string]string{},
	}
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	for _, idx := range []string{"index0", "index1", "index2", "index3"} {
		dir := "/sys/devices/system/cpu/cpu0/cache/" + idx + "/"
		level, size := readTrim(dir+"level"), readTrim(dir+"size")
		if level == "" || size == "" {
			continue
		}
		name := "L" + level
		switch readTrim(dir + "type") {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		m.Caches[name] = size
	}
	// HEAD is either a hash or "ref: refs/heads/<branch>".
	head := readTrim(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readTrim(".git/" + ref)
	}
	m.Commit = head
	return m
}
