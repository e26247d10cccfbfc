package main

// The system under test as a child process: build ./cmd/axmlserved from
// the checked-out tree, start it on loopback ports the kernel picks, read
// its resource use from /proc, and always reap it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildServer compiles cmd/axmlserved of the module rooted at root into
// outDir and returns the binary's path. The go command's cache makes a
// repeat build a sub-second no-op; set-up time never includes it.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "axmlserved")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "./cmd/axmlserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/axmlserved in %s: %v\n%s", root, err, out)
	}
	return abs, nil
}

// liveServers counts children started and not yet reaped.
var liveServers atomic.Int32

// serverProc is one running axmlserved.
type serverProc struct {
	cmd      *exec.Cmd
	db       string
	addr     string // wire protocol
	httpAddr string // HTTP facade, "" unless requested

	mu   sync.Mutex
	tail bytes.Buffer // everything the server printed, for error reports

	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// startServer execs the prebuilt server on a store file in dir with the
// flags the issue fixes (defaults otherwise: 256×8 KiB pool, 4 096 partial
// index entries, mode partial, WAL on, no archive) and returns once it has
// printed the addresses it listens on.
func startServer(bin, dir string, withHTTP bool) (*serverProc, error) {
	p := &serverProc{db: filepath.Join(dir, "t.db"), exited: make(chan struct{})}
	args := []string{"-db", p.db, "-addr", "127.0.0.1:0", "-max-frame", "16777216"}
	if withHTTP {
		args = append(args, "-http", "127.0.0.1:0")
	}
	p.cmd = exec.Command(bin, args...)
	// The child dies with the benchmark even when the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = p
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	liveServers.Add(1)

	type addrs struct{ wire, http string }
	ready := make(chan addrs, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		var a addrs
		sent := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.Write([]byte(line + "\n"))
			if sent {
				continue
			}
			if i := strings.LastIndex(line, " on "); i >= 0 {
				switch {
				case strings.Contains(line, ": serving "):
					a.wire = line[i+4:]
				case strings.Contains(line, ": http facade "):
					a.http = line[i+4:]
				}
			}
			if a.wire != "" && (!withHTTP || a.http != "") {
				ready <- a
				sent = true
			}
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe; let the scanner drain it first
		p.err = p.cmd.Wait()
		liveServers.Add(-1)
		close(p.exited)
	}()

	select {
	case a := <-ready:
		p.addr, p.httpAddr = a.wire, a.http
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("axmlserved exited before serving: %v\n%s", p.err, p.output())
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("axmlserved did not report its address within 20s\n%s", p.output())
	}
}

// Write keeps what the server printed, from its stderr and from the
// goroutine scanning its stdout.
func (p *serverProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tail.Write(b)
}

func (p *serverProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tail.String()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop asks for a graceful drain (SIGTERM: finish, fsync, close the store)
// and waits for the exit; a server that does not drain in time is killed
// and reported.
func (p *serverProc) stop() error {
	select {
	case <-p.exited:
		return fmt.Errorf("axmlserved had already exited: %v\n%s", p.err, p.output())
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("axmlserved drain: %v\n%s", p.err, p.output())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("axmlserved did not drain within 30s; killed")
	}
}

// kill is kill -9 plus the wait: the crash of the ingest workload, and the
// last resort everywhere else. Safe to call on a process that has exited.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// procSample is what /proc says about the server at one instant.
type procSample struct {
	cpuNs       int64 // on-CPU time summed over threads (schedstat, ns resolution)
	ctxSwitches int64 // voluntary + involuntary, summed over threads
	hwmKB       int64 // peak resident set (VmHWM)
	rssKB       int64 // resident set now (VmRSS)
	writeBytes  int64 // bytes sent to the block layer (/proc/<pid>/io)
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := filepath.Join("/proc", strconv.Itoa(pid))
	tasks, err := os.ReadDir(filepath.Join(base, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		tdir := filepath.Join(base, "task", t.Name())
		// A thread may exit between ReadDir and the reads; its time is then
		// lost to both samples of a pair alike, so skip it.
		if b, err := os.ReadFile(filepath.Join(tdir, "schedstat")); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				s.cpuNs += n
			}
		}
		if b, err := os.ReadFile(filepath.Join(tdir, "status")); err == nil {
			s.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	b, err := os.ReadFile(filepath.Join(base, "status"))
	if err != nil {
		return s, err
	}
	s.hwmKB = statusField(b, "VmHWM:")
	s.rssKB = statusField(b, "VmRSS:")
	if b, err := os.ReadFile(filepath.Join(base, "io")); err == nil {
		s.writeBytes = statusField(b, "write_bytes:")
	}
	return s, nil
}

// statusField returns the first integer after key in a /proc "key: value"
// file, 0 when the key is absent.
func statusField(b []byte, key string) int64 {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// fileSize is the size of path, 0 when it does not exist.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// fsType names the filesystem holding dir (from /proc/mounts, longest
// mount-point prefix), for the host facts the output records.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		fs := strings.Fields(line)
		if len(fs) < 3 {
			continue
		}
		mp := fs[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, fs[2]
		}
	}
	return typ
}
