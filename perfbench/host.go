package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// usage is a snapshot of host CPU time, this process's GC CPU time and
// its cumulative heap allocation.
type usage struct {
	hostBusy, hostTotal uint64 // /proc/stat jiffies
	gcCPU               float64
	allocBytes          uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleUsage() usage {
	var u usage
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[1].Value.Uint64()
	}
	u.hostBusy, u.hostTotal = readProcStat()
	return u
}

// readProcStat returns busy and total jiffies from the aggregate cpu
// line of /proc/stat, or zeros where it is unavailable.
func readProcStat() (busy, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	var idle uint64
	for i, f := range fields[1:] {
		if i >= 8 {
			break
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 3 || i == 4 {
			idle += v
		}
	}
	return total - idle, total
}

// setUsage records the host and runtime metrics between two snapshots.
func (r *result) setUsage(from, to usage) {
	r.values["runtime.gc_cpu_s"] = to.gcCPU - from.gcCPU
	if dt := to.hostTotal - from.hostTotal; dt > 0 {
		r.values["host.cpu_busy_frac"] = float64(to.hostBusy-from.hostBusy) / float64(dt)
	}
}
