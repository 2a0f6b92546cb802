package orb

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"testing"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// echoChildEnv makes the test binary, re-exec'd by
// BenchmarkEchoCrossProcess, serve as its echo child.
const echoChildEnv = "ORB_ECHO_CHILD"

// TestEchoCrossProcessChild is BenchmarkEchoCrossProcess's other process.
// Re-exec'd with echoChildEnv set, it serves an echo servant on an ORB
// and a raw TCP echo, prints the ORB endpoint and the raw address on one
// line each, and serves until its stdin closes. Run directly, it skips.
func TestEchoCrossProcessChild(t *testing.T) {
	if os.Getenv(echoChildEnv) == "" {
		t.Skip("the echo child of BenchmarkEchoCrossProcess")
	}
	srv := New()
	defer srv.Shutdown()
	srv.RegisterServantWithKey("echo", "IDL:bench/Echo:1.0", echoBytesServant{})
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	fmt.Printf("%s\n%s\n", ep, ln.Addr())
	io.Copy(io.Discard, os.Stdin)
}

// BenchmarkEchoCrossProcess measures one small echo round trip to another
// process — the test binary re-exec'd as TestEchoCrossProcessChild — three
// ways: raw is a bare TCP ping-pong of the ORB request's size, the floor
// under any ORB call; lane is an ORB call on the default pool, where a
// lone call runs on an exclusive lane; shared is the same call with
// WithPoolSize(1), multiplexed through the read loop and the per-request
// handler goroutine. Each reports us/rtt; lane−raw against shared−raw is
// what exclusive lanes remove from the ORB's cost above the socket.
func BenchmarkEchoCrossProcess(b *testing.B) {
	cmd := exec.Command(os.Args[0], "-test.run", "^TestEchoCrossProcessChild$")
	cmd.Env = append(os.Environ(), echoChildEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		b.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	lines := bufio.NewScanner(stdout)
	var addrs [2]string
	for i := range addrs {
		if !lines.Scan() {
			b.Fatalf("echo child exited before printing its addresses: %v", lines.Err())
		}
		addrs[i] = lines.Text()
	}
	go io.Copy(io.Discard, stdout)
	ep, rawAddr := addrs[0], addrs[1]
	ref := NewIOR("IDL:bench/Echo:1.0", "echo", ep)

	payload := make([]byte, 64)
	e := cdr.NewEncoder(16 + len(payload))
	e.WriteBytes(payload)
	body := e.Bytes()
	frame := encodeRequestFrame(request{requestID: 1, objectKey: ref.Key, operation: "echo", body: body})
	msg := append([]byte(nil), frame.Frame()...)
	cdr.PutEncoder(frame)

	perRTT := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3, "us/rtt")
	}
	b.Run("raw", func(b *testing.B) {
		c, err := net.Dial("tcp", rawAddr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		buf := make([]byte, len(msg))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Write(msg); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				b.Fatal(err)
			}
		}
		perRTT(b)
	})
	for _, bc := range []struct {
		name string
		opts []ORBOption
	}{{"lane", nil}, {"shared", []ORBOption{WithPoolSize(1)}}} {
		b.Run(bc.name, func(b *testing.B) {
			cli := New(bc.opts...)
			defer cli.Shutdown()
			ctx := context.Background()
			for i := 0; i < 100; i++ { // dial, and warm both processes' pools
				if _, err := cli.Invoke(ctx, ref, "echo", body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Invoke(ctx, ref, "echo", body); err != nil {
					b.Fatal(err)
				}
			}
			perRTT(b)
		})
	}
}
