package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"bladerunner/internal/sim"
)

// child is one supervised tier process.
type child struct {
	role string
	args []string // full arg list EXCLUDING listen/ctrl pins
	// ctrlAddr/burstAddr are the addresses bound on first boot; restarts
	// pin them so the cluster's address book stays valid across a crash
	// (the POP-kill failover path: the new pop reuses the old port and
	// devices redial it).
	ctrlAddr  string
	burstAddr string
	// debugAddr is the -debug-addr the child starts with: the launcher's
	// host:0 until the first boot binds a port, then that port, pinned too.
	debugAddr string

	mu  sync.Mutex
	cmd *exec.Cmd
	// done yields the cmd's Wait result exactly once; the reaper goroutine
	// started by spawn owns the Wait, so exited children never linger as
	// zombies even before the supervisor notices.
	done chan error
}

// supervisor runs the 4-process cluster: spawn in dependency order, parse
// each child's READY line, restart unexpected deaths, drain on SIGTERM.
type supervisor struct {
	exe       string
	debugAddr string // -debug-addr host:0 for every child, or empty
	draining  chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	failed    chan error
}

// stop marks the cluster as draining so supervise loops treat child
// deaths as expected.
func (s *supervisor) stop() {
	s.stopOnce.Do(func() { close(s.draining) })
}

const restartLimit = 5

// runAll is the -role all entry point. A non-empty debugAddr, host:0, gives
// every child a debug endpoint on a port of its own.
func runAll(b bootstrap, debugAddr string) error {
	if debugAddr != "" {
		if _, port, err := net.SplitHostPort(debugAddr); err != nil || port != "0" {
			return fmt.Errorf("-role all -debug-addr %q: want host:0, each child binds a port of its own", debugAddr)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	total := b.Procs
	if total < 4 {
		total = 4
	}
	sup := &supervisor{exe: exe, debugAddr: debugAddr, draining: make(chan struct{}), failed: make(chan error, total)}

	common := []string{
		"-region", b.Region,
		"-users", fmt.Sprint(b.Users),
		"-seed", fmt.Sprint(b.Seed),
	}

	var children []*child
	abort := func(err error) error {
		sup.stop()
		sup.shutdown(reverse(children))
		sup.wg.Wait()
		return err
	}

	pylon := &child{role: "pylon", args: common}
	if err := sup.boot(pylon); err != nil {
		return abort(err)
	}
	children = append(children, pylon)
	wasNode := &child{role: "was", args: append([]string{"-pylon", pylon.ctrlAddr}, common...)}
	if err := sup.boot(wasNode); err != nil {
		return abort(err)
	}
	children = append(children, wasNode)
	brass := &child{role: "brass", args: append([]string{
		"-pylon", pylon.ctrlAddr, "-was", wasNode.ctrlAddr,
		"-hosts", fmt.Sprint(b.Hosts),
	}, common...)}
	if err := sup.boot(brass); err != nil {
		return abort(err)
	}
	children = append(children, brass)
	brassTarget := fmt.Sprintf("brass-%s-0=%s", b.Region, brass.burstAddr)
	for i := 0; i < total-3; i++ {
		pop := &child{role: "pop", args: append([]string{"-brass", brassTarget}, common...)}
		if err := sup.boot(pop); err != nil {
			return abort(err)
		}
		children = append(children, pop)
	}

	fmt.Println("CLUSTER-READY")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	var failure error
	select {
	case <-sigc:
	case failure = <-sup.failed:
		log.Printf("launcher: giving up: %v", failure)
	}
	sup.stop()
	sup.shutdown(reverse(children))
	sup.wg.Wait()
	if failure != nil {
		return failure
	}
	log.Printf("launcher: cluster drained")
	return nil
}

func reverse(cs []*child) []*child {
	out := make([]*child, len(cs))
	for i, c := range cs {
		out[len(cs)-1-i] = c
	}
	return out
}

// boot starts ch for the first time, waits for its READY line, records
// its bound addresses, announces it, and begins supervising it.
func (s *supervisor) boot(ch *child) error {
	ch.debugAddr = s.debugAddr
	cmd, done, err := s.spawn(ch)
	if err != nil {
		return err
	}
	ch.mu.Lock()
	ch.cmd, ch.done = cmd, done
	ch.mu.Unlock()
	s.announce(ch, cmd.Process.Pid)
	s.wg.Add(1)
	go s.supervise(ch)
	return nil
}

// spawn launches one process for ch and blocks until its READY line
// arrives (recording the bound addresses on first boot; pinning them on
// restarts). Child stderr and non-READY stdout pass through to our
// stderr, prefixed.
func (s *supervisor) spawn(ch *child) (*exec.Cmd, chan error, error) {
	args := []string{"-role", ch.role}
	// Pin addresses once known, so restarts land on the same ports.
	if ch.ctrlAddr != "" {
		args = append(args, "-ctrl", ch.ctrlAddr)
	}
	if ch.burstAddr != "" && ch.burstAddr != "-" {
		args = append(args, "-listen", ch.burstAddr)
	}
	if ch.debugAddr != "" {
		args = append(args, "-debug-addr", ch.debugAddr)
	}
	args = append(args, ch.args...)
	cmd := exec.Command(s.exe, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", ch.role, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }() // reaper: sole owner of Wait

	readyc := make(chan map[string]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "READY ") {
				kv := map[string]string{}
				for _, tok := range strings.Fields(line)[1:] {
					if k, v, ok := strings.Cut(tok, "="); ok {
						kv[k] = v
					}
				}
				//brlint:allow(counted-shed) only the first READY line matters; a duplicate from a restarted child is not a shed worth counting
				select {
				case readyc <- kv:
				default:
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "[%s] %s\n", ch.role, line)
		}
	}()

	select {
	case kv := <-readyc:
		ch.ctrlAddr = kv["ctrl"]
		ch.burstAddr = kv["burst"]
		if d := kv["debug"]; d != "-" && d != "" {
			ch.debugAddr = d
		}
		return cmd, done, nil
	case werr := <-done:
		return nil, nil, fmt.Errorf("%s exited before READY: %v", ch.role, werr)
	case <-sim.Timeout(sim.RealClock{}, 30*time.Second):
		_ = cmd.Process.Kill()
		return nil, nil, fmt.Errorf("%s never became READY", ch.role)
	}
}

// announce prints the machine-readable per-child line.
func (s *supervisor) announce(ch *child, pid int) {
	fmt.Printf("CHILD role=%s pid=%d ctrl=%s burst=%s debug=%s\n", ch.role, pid, ch.ctrlAddr, ch.burstAddr, orDash(ch.debugAddr))
}

// supervise restarts ch when it dies outside a drain, pinning its old
// addresses. More than restartLimit consecutive failures abandons the
// cluster.
func (s *supervisor) supervise(ch *child) {
	defer s.wg.Done()
	restarts := 0
	for {
		ch.mu.Lock()
		done := ch.done
		ch.mu.Unlock()
		var err error
		select {
		case err = <-done:
		case <-s.draining:
			return
		}
		select {
		case <-s.draining:
			return
		default:
		}
		restarts++
		if restarts > restartLimit {
			s.failed <- fmt.Errorf("%s died %d times (last: %v)", ch.role, restarts, err)
			return
		}
		log.Printf("launcher: %s died (%v); restarting on ctrl=%s burst=%s", ch.role, err, ch.ctrlAddr, ch.burstAddr)
		sim.Sleep(sim.RealClock{}, 100*time.Millisecond)
		next, ndone, serr := s.spawn(ch)
		if serr != nil {
			s.failed <- fmt.Errorf("restart %s: %w", ch.role, serr)
			return
		}
		ch.mu.Lock()
		ch.cmd, ch.done = next, ndone
		ch.mu.Unlock()
		s.announce(ch, next.Process.Pid)
	}
}

// shutdown drains children in order: SIGTERM, bounded wait, SIGKILL.
func (s *supervisor) shutdown(children []*child) {
	for _, ch := range children {
		ch.mu.Lock()
		cmd := ch.cmd
		ch.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	clock := sim.RealClock{}
	deadline := clock.Now().Add(10 * time.Second)
	for _, ch := range children {
		ch.mu.Lock()
		cmd := ch.cmd
		ch.mu.Unlock()
		if cmd == nil || cmd.Process == nil {
			continue
		}
		for clock.Now().Before(deadline) {
			if cmd.Process.Signal(syscall.Signal(0)) != nil {
				break // exited
			}
			sim.Sleep(sim.RealClock{}, 50*time.Millisecond)
		}
		_ = cmd.Process.Kill()
	}
}
