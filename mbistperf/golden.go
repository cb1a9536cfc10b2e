package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// goldenServiceRounds is how many rounds per client the golden file
// covers for service-mixed: far more than a run reaches, so every job a
// seed-1 run sends has a digest. The grade workloads reach every key in
// their first round.
const goldenServiceRounds = 100

// writeGolden runs every distinct op the seed-1 runs can reach, at both
// scales, checks each with the scalar oracle (grades) or an in-process
// grade (service grade jobs), and writes their digests to path.
func writeGolden(ctx context.Context, path string) error {
	digests := map[string]string{}
	for _, scale := range []string{scaleFull, scaleSmoke} {
		for _, name := range workloadNames {
			cfg := runConfig{Workload: name, Seed: 1, Scale: scale}
			e, err := setup(cfg)
			if err != nil {
				return err
			}
			e.golden = nil
			n, err := goldenDigests(ctx, cfg, e, digests)
			e.close()
			if err != nil {
				return fmt.Errorf("%s (%s): %w", name, scale, err)
			}
			fmt.Fprintf(os.Stderr, "%s (%s): %d ops\n", name, scale, n)
		}
	}
	data, err := json.MarshalIndent(goldenFile{Seed: 1, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenDigests runs each distinct op of cfg's workload once, checks
// them all, adds their digests to digests and returns how many it ran.
func goldenDigests(ctx context.Context, cfg runConfig, e *env, digests map[string]string) (int, error) {
	r, err := newRunner(cfg, e, false)
	if err != nil {
		return 0, err
	}
	defer r.close()
	r.spotAll = true
	rounds := 1
	if cfg.Workload == "service-mixed" {
		rounds = goldenServiceRounds
	}
	seen := map[string]bool{}
	for c, cl := range r.clients {
		for round := 0; round < rounds; round++ {
			ops, err := planRound(cfg.Workload, cfg.Scale, cfg.Seed, c, round)
			if err != nil {
				return 0, err
			}
			for _, o := range ops {
				if seen[o.Key] {
					continue
				}
				seen[o.Key] = true
				rec := r.do(ctx, cl, o)
				if rec.Error != "" {
					return 0, fmt.Errorf("%s: %s", o.Key, rec.Error)
				}
				digests[o.Key] = rec.Digest
			}
		}
	}
	if err := r.verify(ctx); err != nil {
		return 0, err
	}
	if len(r.refuted) > 0 {
		return 0, fmt.Errorf("the after-window checks refuted %v", r.refuted)
	}
	return len(seen), nil
}
