// End-to-end smoke of the multi-process deployment: build the real
// binary, boot a cluster of separate OS processes on loopback, run the
// quickstart flow over real TCP, SIGKILL a POP mid-stream, and assert
// the launcher restarts it on the same port and the reconnecting device
// resumes gap-free by resubscribing from its stored request.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/device"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/socialgraph"
)

// childInfo is one parsed CHILD line from the launcher.
type childInfo struct {
	role  string
	pid   int
	ctrl  string
	burst string
}

// launchCluster builds brnode, boots -role all -procs N, and returns the
// children by role (pops in announcement order) once CLUSTER-READY
// arrives. Restarted children update the pid in place.
type liveCluster struct {
	cmd *exec.Cmd

	mu       sync.Mutex
	byRole   map[string][]*childInfo
	restarts map[string]int
	ready    chan struct{}
}

func launchCluster(t *testing.T, procs int) *liveCluster {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "brnode")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build brnode: %v", err)
	}

	cmd := exec.Command(bin, "-role", "all", "-procs", strconv.Itoa(procs), "-users", "100")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start launcher: %v", err)
	}
	lc := &liveCluster{
		cmd:      cmd,
		byRole:   make(map[string][]*childInfo),
		restarts: make(map[string]int),
		ready:    make(chan struct{}),
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "CHILD "):
				ci := &childInfo{}
				for _, tok := range strings.Fields(line)[1:] {
					k, v, _ := strings.Cut(tok, "=")
					switch k {
					case "role":
						ci.role = v
					case "pid":
						ci.pid, _ = strconv.Atoi(v)
					case "ctrl":
						ci.ctrl = v
					case "burst":
						ci.burst = v
					}
				}
				lc.mu.Lock()
				// A restart re-announces on the same addresses: update the
				// matching entry's pid instead of growing the list.
				replaced := false
				for _, prev := range lc.byRole[ci.role] {
					if prev.ctrl == ci.ctrl {
						prev.pid = ci.pid
						lc.restarts[ci.role]++
						replaced = true
						break
					}
				}
				if !replaced {
					lc.byRole[ci.role] = append(lc.byRole[ci.role], ci)
				}
				lc.mu.Unlock()
			case line == "CLUSTER-READY":
				close(lc.ready)
			}
		}
	}()

	select {
	case <-lc.ready:
	case <-time.After(90 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("cluster never became ready")
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	})
	return lc
}

func (lc *liveCluster) child(t *testing.T, role string, idx int) *childInfo {
	t.Helper()
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cs := lc.byRole[role]
	if idx >= len(cs) {
		t.Fatalf("no %s child #%d (have %d)", role, idx, len(cs))
	}
	cp := *cs[idx]
	return &cp
}

func (lc *liveCluster) restartCount(role string) int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.restarts[role]
}

func dialCtrlT(t *testing.T, name, addr string) *ctrl.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s at %s: %v", name, addr, err)
	}
	conn := ctrl.NewConn(name, c, nil).Start()
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// seqTracker collects delivered mailbox sequence numbers from a stream.
type seqTracker struct {
	mu   sync.Mutex
	seqs map[uint64]bool
	done sync.WaitGroup
}

func trackStream(st *device.Stream) *seqTracker {
	tr := &seqTracker{seqs: make(map[uint64]bool)}
	tr.done.Add(2)
	go func() {
		defer tr.done.Done()
		for d := range st.Updates {
			var m apps.MessagePayload
			if json.Unmarshal(d.Payload, &m) == nil {
				tr.mu.Lock()
				tr.seqs[m.Seq] = true
				tr.mu.Unlock()
			}
		}
	}()
	go func() {
		defer tr.done.Done()
		for range st.Flow {
		}
	}()
	return tr
}

func (tr *seqTracker) hasAll(n uint64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for s := uint64(1); s <= n; s++ {
		if !tr.seqs[s] {
			return false
		}
	}
	return true
}

func (tr *seqTracker) missing(n uint64) []uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []uint64
	for s := uint64(1); s <= n && len(out) < 10; s++ {
		if !tr.seqs[s] {
			out = append(out, s)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestE2EMultiProcessFailover is the tentpole smoke: quickstart over a
// real 5-process cluster (pylon, was, brass, 2 pops), then a POP
// SIGKILL + supervised restart with gap-free durlog-cursor resume.
func TestE2EMultiProcessFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: skipped in -short")
	}
	lc := launchCluster(t, 5) // pylon + was + brass + 2 pops

	wasInfo := lc.child(t, "was", 0)
	pylonInfo := lc.child(t, "pylon", 0)
	pop0 := lc.child(t, "pop", 0)
	pop1 := lc.child(t, "pop", 1)

	backend := ctrl.NewWASClient(dialCtrlT(t, "test->was", wasInfo.ctrl))
	var pylonCli *ctrl.PylonClient
	pconn, err := net.Dial("tcp", pylonInfo.ctrl)
	if err != nil {
		t.Fatal(err)
	}
	pcc := ctrl.NewConn("test->pylon", pconn, nil)
	pylonCli = ctrl.NewPylonClient(pcc)
	pcc.Start()
	t.Cleanup(func() { _ = pcc.Close() })

	// Each viewer device pins one POP, so killing pop-0 severs exactly
	// one of them while the other keeps the mailbox topic (and its
	// durable log) hot on the BRASS host — the second-device-per-user
	// shape: the phone stays online while the laptop's POP dies.
	tnet := edge.NewTCPNetwork()
	defer tnet.Close()
	tnet.SetAddr("pop-0", pop0.burst)
	tnet.SetAddr("pop-1", pop1.burst)

	const (
		authorUID = socialgraph.UserID(90)
		viewerUID = socialgraph.UserID(10)
	)
	author := device.New(device.Config{User: authorUID}, tnet, backend, nil)
	defer author.Close()
	newViewer := func(pop string) *device.Device {
		return device.New(device.Config{
			User:    viewerUID,
			POPs:    []string{pop},
			Backoff: faults.BackoffPolicy{Base: 25 * time.Millisecond, Max: 400 * time.Millisecond},
		}, tnet, backend, nil)
	}
	viewerA := newViewer("pop-0") // will lose its POP
	defer viewerA.Close()
	viewerB := newViewer("pop-1") // keeps the topic alive during the kill
	defer viewerB.Close()

	for _, d := range []*device.Device{viewerA, viewerB} {
		if err := d.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	stA, err := viewerA.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := viewerB.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	trA, trB := trackStream(stA), trackStream(stB)

	// Quickstart: create the thread, wait for the subscription to reach
	// Pylon (over two process hops), then message through the WAS.
	out, err := author.Mutate(fmt.Sprintf(`createThread(members: "%d,%d")`, authorUID, viewerUID))
	if err != nil {
		t.Fatalf("createThread: %v", err)
	}
	var thread uint64
	if err := json.Unmarshal(out, &thread); err != nil {
		t.Fatalf("thread id: %v", err)
	}
	if !pylonCli.WaitForSubscriber(apps.MailboxTopic(viewerUID), 10*time.Second) {
		t.Fatal("mailbox topic never gained a Pylon subscriber")
	}

	var sent uint64
	send := func(text string) {
		t.Helper()
		if _, err := author.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, thread, text)); err != nil {
			t.Fatalf("sendMessage: %v", err)
		}
		sent++
	}

	send("hello edge")
	waitFor(t, "baseline delivery to both devices", 10*time.Second, func() bool {
		return trA.hasAll(sent) && trB.hasAll(sent)
	})

	// Failover: SIGKILL viewer A's POP. The launcher must restart it on
	// the same port; until then, messages keep flowing to viewer B and
	// into the BRASS durable log.
	if err := syscall.Kill(pop0.pid, syscall.SIGKILL); err != nil {
		t.Fatalf("kill pop-0 (pid %d): %v", pop0.pid, err)
	}
	waitFor(t, "viewer A to observe the dead POP", 10*time.Second, func() bool {
		return !viewerA.Connected()
	})
	for i := 0; i < 20; i++ {
		send(fmt.Sprintf("during-outage-%d", i))
	}
	waitFor(t, "viewer B delivery during the outage", 15*time.Second, func() bool {
		return trB.hasAll(sent)
	})
	waitFor(t, "launcher restart of pop-0", 30*time.Second, func() bool {
		return lc.restartCount("pop") >= 1
	})
	waitFor(t, "viewer A reconnect through the restarted POP", 30*time.Second, func() bool {
		return viewerA.Connected() && viewerA.Streams() == 1
	})

	// Gap-free resume: everything published during the outage must reach
	// viewer A purely via the durable-log cursor replay.
	send("after failover")
	deadline := time.Now().Add(30 * time.Second)
	for !trA.hasAll(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("viewer A never converged: %d sent, missing %v, resubscribes=%d resumes=%d",
				sent, trA.missing(sent), viewerA.Resubscribes.Value(), viewerA.Resumes.Value())
		}
		time.Sleep(50 * time.Millisecond)
	}

	if got := viewerA.Resubscribes.Value(); got == 0 {
		t.Error("viewer A resubscribed zero times; the failover path never engaged")
	}
	if got := viewerA.PeerCloses.Value(); got == 0 {
		t.Log("note: POP kill surfaced as a hard error, not a clean close (expected for SIGKILL)")
	}

	// Clean teardown: close devices first so their streams drain.
	viewerA.Close()
	viewerB.Close()
	trA.done.Wait()
	trB.done.Wait()
	t.Logf("sent=%d resubscribes=%d resumes=%d popRestarts=%d",
		sent, viewerA.Resubscribes.Value(), viewerA.Resumes.Value(), lc.restartCount("pop"))
}
