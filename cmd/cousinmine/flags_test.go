package main

import (
	"context"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestModeFlags sets every flag in every mode and checks that exactly
// the flags the mode reads are accepted, and that each other flag fails
// with one message naming the flag and the mode. The accepted sets are
// written out here, apart from modeFlags, so changing what a mode reads
// changes both.
func TestModeFlags(t *testing.T) {
	reads := map[string]string{
		"batch":       "mode maxdist minoccur minsup ignoredist format",
		"stream":      "stream mode maxdist minoccur minsup ignoredist format shards checkpoint checkpoint-every compact",
		"plan":        "plan parts maxdist minoccur minsup ignoredist",
		"worker":      "worker manifest shards max-resident",
		"merge":       "merge manifest format compact allow-partial",
		"distributed": "distributed workdir maxdist minoccur minsup ignoredist format compact shards max-resident dist-workers retries backoff attempt-timeout straggler-factor allow-partial",
	}
	selects := map[string][]string{
		"batch":       nil,
		"stream":      {"-stream"},
		"plan":        {"-plan", "p.json"},
		"worker":      {"-worker", "0"},
		"merge":       {"-merge"},
		"distributed": {"-distributed", "2"},
	}
	// A value for every flag; the mode-selecting flags take the value
	// that selects nothing, so setting them never changes the mode.
	value := map[string]string{
		"mode": "multi", "maxdist": "1", "minoccur": "1", "minsup": "2", "ignoredist": "true",
		"format": "json", "stream": "false", "shards": "1", "checkpoint": "c.shard",
		"checkpoint-every": "10", "compact": "x.v4", "plan": "", "parts": "2", "worker": "-1",
		"manifest": "m.json", "merge": "false", "distributed": "0", "workdir": "w",
		"max-resident": "1M", "dist-workers": "1", "retries": "1", "backoff": "1s",
		"attempt-timeout": "1s", "straggler-factor": "2", "allow-partial": "true",
	}
	all, _ := newFlagSet(io.Discard)
	all.VisitAll(func(fl *flag.Flag) {
		if _, ok := value[fl.Name]; !ok {
			t.Errorf("flag -%s has no test value", fl.Name)
		}
	})
	for mode, sel := range selects {
		for name, v := range value {
			if slices.Contains(sel, "-"+name) {
				continue // the selecting flag itself
			}
			fs, f := newFlagSet(io.Discard)
			if err := fs.Parse(append(slices.Clone(sel), "-"+name+"="+v)); err != nil {
				t.Fatal(err)
			}
			got, err := modeOf(fs, f)
			if slices.Contains(strings.Fields(reads[mode]), name) {
				if err != nil || got != mode {
					t.Errorf("%s mode, -%s: got mode %q, err %v; want accepted", mode, name, got, err)
				}
				continue
			}
			want := "-" + name + " is not read in " + mode + " mode; drop -" + name
			if err == nil || err.Error() != want {
				t.Errorf("%s mode, -%s: err %v; want %q", mode, name, err, want)
			}
		}
	}
}

// TestRunRejectsIgnoredFlags runs the command lines that used to exit 0
// while a flag did nothing.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-plan", "m.json", "-compact", "y.v4", "testdata/forest.nwk"}, "-compact is not read in plan mode"},
		{[]string{"-worker", "0", "-manifest", "m.json", "-compact", "x.v4", "-maxdist", "3", "-minsup", "9"}, "-compact is not read in worker mode"},
		{[]string{"-worker", "0", "-manifest", "m.json", "-maxdist", "3"}, "-maxdist is not read in worker mode"},
		{[]string{"-merge", "-manifest", "m.json", "-shards", "3"}, "-shards is not read in merge mode"},
	} {
		err := run(context.Background(), tc.args, strings.NewReader(""), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}
