package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// invocation is one scmd run: run's parameters, starting from a tiny
// 2-rank silica run with the flag defaults, which each case edits.
type invocation struct {
	steps, ranks int
	opts         serialOpts
	tel          telemetryOpts
	sock         socketOpts
}

func tinyRun() invocation {
	return invocation{
		steps: 2, ranks: 2,
		opts: serialOpts{workers: 1},
		sock: socketOpts{transport: "chan", killRank: -1, killStep: 3, workerRank: -1},
	}
}

func (in invocation) run() error {
	return run("silica", "sc", 0, 3, in.steps, 1, 300, in.ranks, 1, 1, 0, in.opts, in.tel, in.sock)
}

// captureStdout runs fn with os.Stdout redirected to a file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	runErr := fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunRejectsUnreadFlags: flags the chosen mode never reads are an
// error, not silently ignored, and the retired -transport socket
// spelling names its replacements.
func TestRunRejectsUnreadFlags(t *testing.T) {
	cases := []struct {
		name string
		edit func(*invocation)
		want []string // substrings of the error
	}{
		{"thermostat with ranks", func(in *invocation) { in.opts.thermostat = 300 }, []string{"-thermostat", "serial"}},
		{"skin with ranks", func(in *invocation) { in.opts.skin = 1 }, []string{"-skin", "serial"}},
		{"analyze with ranks", func(in *invocation) { in.opts.analyze = true }, []string{"-analyze", "serial"}},
		{"traj with ranks", func(in *invocation) { in.opts.traj = "out.xyz" }, []string{"-traj", "serial"}},
		{"kill-rank on chan", func(in *invocation) { in.sock.killRank = 1 }, []string{"-kill-rank", "unix or tcp"}},
		{"kill-rank on serial chan", func(in *invocation) { in.ranks, in.sock.killRank = 1, 0 }, []string{"-kill-rank"}},
		{"old socket spelling", func(in *invocation) { in.sock.transport = "socket" }, []string{`"socket"`, "chan", "unix", "tcp"}},
		{"socket transport serial", func(in *invocation) { in.ranks, in.sock.transport = 1, "unix" }, []string{"-transport unix", "-ranks > 1"}},
		{"balance serial", func(in *invocation) { in.ranks, in.tel.balanceEvery = 1, 10 }, []string{"-balance", "-ranks > 1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := tinyRun()
			c.edit(&in)
			_, err := captureStdout(t, in.run)
			if err == nil {
				t.Fatal("run succeeded, want an error")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestRunBalanceCadence: -balance N turns the balancer on with an
// N-step check cadence (checks run on steps N, 2N, … after step 0).
func TestRunBalanceCadence(t *testing.T) {
	in := tinyRun()
	in.steps = 12
	in.tel.balanceEvery = 10
	out, err := captureStdout(t, in.run)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "adaptive balance: 1 checks") {
		t.Errorf("12 steps at -balance 10 should make one balance check:\n%s", out)
	}
}
