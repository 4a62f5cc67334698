package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// digests.json holds, per workload and seed, the digest of the output
// text (and SVGs) a pass produces at the default population size.
// Regenerate an entry with:
//
//	ritwbench -record-digests paper-batch 1 2 3
//
//go:embed digests.json
var digestsJSON []byte

var recorded map[string]map[string]string

func init() {
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
}

// recordedDigest returns the recorded output digest of a workload at a
// seed, if one was recorded for the population size in use.
func recordedDigest(workload string, seed int64, probes int) (string, bool) {
	if probes != 0 {
		return "", false
	}
	d, ok := recorded[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// recordDigests runs one pass of a simulated workload per seed and
// prints the digests as JSON, ready to merge into digests.json.
func recordDigests(ctx context.Context, e env, workload string, seeds []string) error {
	pass := map[string]simPassFunc{"paper-batch": paperPass, "attack-lanes": attackPass}[workload]
	if pass == nil {
		return fmt.Errorf("no output digest for workload %q", workload)
	}
	out := map[string]string{}
	for _, s := range seeds {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
		e.seed = seed
		p, err := pass(ctx, e, nil, false, nil, 0)
		if err != nil {
			return err
		}
		for _, msg := range p.problems {
			return fmt.Errorf("seed %d: %s", seed, msg)
		}
		out[s] = p.digest
	}
	b, err := json.MarshalIndent(map[string]map[string]string{workload: out}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
