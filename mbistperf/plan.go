package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// workloadNames lists the workloads in the order -workload all runs
// them. BENCHMARK.md records why each one exists.
var workloadNames = []string{"grade-large", "grade-fleet", "grade-fsm", "service-mixed"}

// Scales. The benchmark always runs at full scale; smoke shrinks every
// geometry so the tests can drive each workload end to end in seconds.
const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

// op is one timed operation: a grade run in-process, or a job sent to
// the service over HTTP.
type op struct {
	// Index identifies the op within a run. A seed always produces the
	// same op at the same index, which is what lets two runs (a traced
	// run and its untraced sibling, or a parent and a change) be
	// compared op by op.
	Index int
	// Key names the op's inputs. Ops with equal keys must produce equal
	// outputs, so golden digests are keyed by it.
	Key   string
	Grade *gradeOp
	Job   *serve.Request
}

// gradeOp grades the algorithms of a sweep.Spec (empty Algs means the
// whole library) against a fault universe.
type gradeOp struct {
	Spec     sweep.Spec
	Universe faults.UniverseOpts
}

func (g *gradeOp) key() string {
	algs := g.Spec.Algs
	if algs == "" {
		algs = "library"
	}
	k := fmt.Sprintf("grade %s %s %dx%dx%d", g.Spec.Arch, algs, g.Spec.Size, g.Spec.Width, g.Spec.Ports)
	if u := g.Universe; u.CellSample > 0 || u.CouplingPairs > 0 || u.AddrSample > 0 {
		k += fmt.Sprintf(" sample=%d/%d/%d seed=%d", u.CellSample, u.CouplingPairs, u.AddrSample, u.Seed)
	}
	return k
}

// workload resolves the op exactly as mbistcov resolves its flags, then
// applies the universe options the flag surface does not expose.
func (g *gradeOp) workload() (*sweep.Workload, error) {
	w, err := g.Spec.Workload()
	if err != nil {
		return nil, err
	}
	w.Opts.Universe = g.Universe
	return w, nil
}

// clients is the number of closed-loop clients a workload runs.
func clients(workload string) int {
	if workload == "service-mixed" {
		return 2
	}
	return 1
}

// roundsPerSecond is how many rounds each client of a workload runs per
// second on the reference host (BENCHMARK.md). A run does seconds times
// that many rounds, so its work, op mix and the heap it leaves behind
// are fixed by -seconds rather than by how fast the host happens to be.
var roundsPerSecond = map[string]float64{
	"grade-large":   0.25,
	"grade-fleet":   95,
	"grade-fsm":     0.45,
	"service-mixed": 0.55,
}

// rounds is how many rounds each client runs in a window of seconds; at
// least one.
func rounds(workload string, seconds int) int {
	return max(1, int(math.Round(float64(seconds)*roundsPerSecond[workload])))
}

// planRound returns one client's ops for one round. A round holds every
// input class of its workload in fixed proportions; the seed draws the
// order of later rounds, the service's job picks and grade-large's
// universe sample. Runs on different seeds therefore measure the same
// mix, which keeps their medians comparable, while the inputs still
// change with the seed.
func planRound(workload, scale string, seed int64, client, round int) ([]op, error) {
	if scale != scaleFull && scale != scaleSmoke {
		return nil, fmt.Errorf("unknown scale %q (want %s or %s)", scale, scaleFull, scaleSmoke)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*10_007 + int64(round)))
	var grades []gradeOp
	var jobs []serve.Request
	switch workload {
	case "grade-large":
		grades = largeRound(scale, seed)
	case "grade-fleet":
		grades = fleetConfigs(scale)
	case "grade-fsm":
		grades = fsmConfigs(scale)
	case "service-mixed":
		jobs = serviceRound(scale, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", workload, strings.Join(workloadNames, ", "))
	}
	n := len(grades) + len(jobs)
	order := rng.Perm(n)
	if round == 0 || workload == "grade-large" {
		// The first round (every grade-large round) runs in a fixed order.
		// Coverage's arena pool fills up with arenas of the geometries
		// that come first and then only recycles them, so the first
		// round's order decides how much heap it pins for the whole run.
		for i := range order {
			order[i] = i
		}
	}
	ops := make([]op, 0, n)
	for _, i := range order {
		index := ((round*n)+len(ops))*clients(workload) + client
		if i < len(grades) {
			g := grades[i]
			ops = append(ops, op{Index: index, Key: g.key(), Grade: &g})
			continue
		}
		req := jobs[i-len(grades)]
		key, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{Index: index, Key: "job " + string(key), Job: &req})
	}
	return ops, nil
}

func gradeSpec(arch, algs string, size, width, ports int) sweep.Spec {
	return sweep.Spec{Algs: algs, Arch: arch, Size: size, Width: width, Ports: ports, Workers: 1}
}

// largeRound is grade-large: kernel-bound single-algorithm microcode
// grades, about 4 s a round on the reference host. The seed draws the
// sampled universe once per run, so the first round grades cold and
// later rounds find their universes and batch plans cached, as repeated
// grades do; fresh universes every round would pile up in the universe
// cache and make the live heap grow with the round count.
func largeRound(scale string, seed int64) []gradeOp {
	size, big := 512, [3]int{2048, 8, 2}
	sample := faults.UniverseOpts{CellSample: 1024, CouplingPairs: 2048, AddrSample: 256, Seed: seed}
	if scale == scaleSmoke {
		size, big = 64, [3]int{128, 4, 2}
		sample = faults.UniverseOpts{CellSample: 64, CouplingPairs: 64, AddrSample: 16, Seed: seed}
	}
	return []gradeOp{
		{Spec: gradeSpec("microcode", "marchc", size, 4, 1)},
		{Spec: gradeSpec("microcode", "marchc++", size, 4, 1)},
		{Spec: gradeSpec("microcode", "marchb", size, 4, 1)},
		{Spec: gradeSpec("microcode", "marchc", big[0], big[1], big[2]), Universe: sample},
	}
}

// fleetConfigs is grade-fleet: the whole library on bit-oriented 8- and
// 16-word memories. Only there do fixed per-grade costs outweigh batch
// replay: production's batch time is 44% of the op on this set, but
// 77% once widths 2 and 4 join, and 82% with 32-word memories too
// (BENCHMARK.md).
func fleetConfigs(scale string) []gradeOp {
	if scale == scaleSmoke {
		return libraryGrades([]int{8}, []int{1})
	}
	return libraryGrades([]int{8, 16}, []int{1})
}

// libraryGrades is the whole library on every combination of sizes and
// widths, at 1 and 2 ports, on the three architectures whose streams
// verify.
func libraryGrades(sizes, widths []int) []gradeOp {
	var out []gradeOp
	for _, arch := range []string{"reference", "microcode", "hardwired"} {
		for _, size := range sizes {
			for _, width := range widths {
				for _, ports := range []int{1, 2} {
					out = append(out, gradeOp{Spec: gradeSpec(arch, "", size, width, ports)})
				}
			}
		}
	}
	return out
}

// fsmConfigs is grade-fsm: the whole library on word-oriented prog-FSM
// controllers, whose decomposed programs send two algorithms to the
// scalar oracle. The cheapest geometry, 16×2 on one port, is left out
// so a round holds an odd number of ops: the run's median op then
// falls in the middle of one geometry's samples instead of between two
// geometries, where it swung by a fifth from seed to seed.
func fsmConfigs(scale string) []gradeOp {
	if scale == scaleSmoke {
		return fsmGrades([]int{8}, []int{2})
	}
	return fsmGrades([]int{16, 32}, []int{2, 4})[1:]
}

// fsmGrades is the whole library on prog-FSM controllers on every
// combination of sizes and widths, at 1 and 2 ports.
func fsmGrades(sizes, widths []int) []gradeOp {
	var out []gradeOp
	for _, size := range sizes {
		for _, width := range widths {
			for _, ports := range []int{1, 2} {
				out = append(out, gradeOp{Spec: gradeSpec("fsm", "", size, width, ports)})
			}
		}
	}
	return out
}

// serviceRound is one client's service-mixed round of 20 jobs: 12 small
// grades (9 library grades on memories of 8 to 32 words of 1 to 4
// bits, 3 on prog-FSM geometries), 3 sharded single-algorithm 256×4
// microcode grades, 2 single-algorithm lints, 2 assemblies and one
// area table. At smoke scale each class appears once, shrunk.
func serviceRound(scale string, rng *rand.Rand) []serve.Request {
	library := strings.Split(sweep.DefaultAlgs, ",")
	pick := func() string { return library[rng.Intn(len(library))] }
	fleet, fsm := libraryGrades([]int{8, 16, 32}, []int{1, 2, 4}), fsmGrades([]int{16}, []int{2, 4})
	nFleet, nFSM, nShard, nLint, nAsm := 9, 3, 3, 2, 2
	shardSize, shardWidth, shards := 256, 4, 4
	if scale == scaleSmoke {
		fleet, fsm = fleetConfigs(scale), fsmConfigs(scale)
		nFleet, nFSM, nShard, nLint, nAsm = 1, 1, 1, 1, 1
		shardSize, shardWidth, shards = 32, 2, 2
	}
	var jobs []serve.Request
	for _, i := range rng.Perm(len(fleet))[:nFleet] {
		jobs = append(jobs, serve.Request{Kind: "grade", Grade: &serve.GradeRequest{Spec: fleet[i].Spec}})
	}
	for _, i := range rng.Perm(len(fsm))[:nFSM] {
		jobs = append(jobs, serve.Request{Kind: "grade", Grade: &serve.GradeRequest{Spec: fsm[i].Spec}})
	}
	for i := 0; i < nShard; i++ {
		spec := gradeSpec("microcode", pick(), shardSize, shardWidth, 1)
		jobs = append(jobs, serve.Request{Kind: "grade", Grade: &serve.GradeRequest{Spec: spec, Shards: shards}})
	}
	for i := 0; i < nLint; i++ {
		jobs = append(jobs, serve.Request{Kind: "lint", Lint: &serve.LintRequest{Algs: pick(), Arch: "microcode"}})
	}
	for i := 0; i < nAsm; i++ {
		arch := []string{"microcode", "fsm"}[rng.Intn(2)]
		jobs = append(jobs, serve.Request{Kind: "assemble", Assemble: &serve.AssembleRequest{Arch: arch, Alg: pick()}})
	}
	return append(jobs, serve.Request{Kind: "area", Area: &serve.AreaRequest{Table: 1}})
}

// jobGrade returns the grade a service job runs, nil for other jobs and
// for no job.
func jobGrade(req *serve.Request) *gradeOp {
	if req == nil || req.Kind != "grade" || req.Grade == nil {
		return nil
	}
	return &gradeOp{Spec: req.Grade.Spec}
}
