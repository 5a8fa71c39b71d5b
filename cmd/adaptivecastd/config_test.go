package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadExampleConfig(t *testing.T) {
	cc, err := LoadClusterConfig(writeConfig(t, ExampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Nodes) != 3 || cc.K != 0.9999 {
		t.Errorf("parsed %d nodes, K=%v", len(cc.Nodes), cc.K)
	}
	if cc.HeartbeatPeriod() != time.Second {
		t.Errorf("period = %v, want 1s", cc.HeartbeatPeriod())
	}
	book := cc.AddressBook()
	if len(book) != 3 || book[1] != "127.0.0.1:7947" {
		t.Errorf("address book wrong: %v", book)
	}
	spec, err := cc.Node(2)
	if err != nil || spec.Addr != "127.0.0.1:7948" {
		t.Errorf("Node(2) = %+v, %v", spec, err)
	}
	if _, err := cc.Node(9); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestLoadConfigDefaults(t *testing.T) {
	cc, err := LoadClusterConfig(writeConfig(t, `{
		"nodes": [
			{"id": 0, "addr": "a:1", "neighbors": [1]},
			{"id": 1, "addr": "b:1", "neighbors": [0]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cc.K != 0.9999 || cc.HeartbeatMillis != 1000 {
		t.Errorf("defaults not applied: %+v", cc)
	}
}

// TestLoadConfigIgnoresRetiredFields: a cluster file written for an
// older daemon, which still sets adaptiveCadenceMillis, loads as it is.
func TestLoadConfigIgnoresRetiredFields(t *testing.T) {
	cc, err := LoadClusterConfig(writeConfig(t, `{
		"heartbeatMillis": 50,
		"adaptiveCadenceMillis": 400,
		"nodes": [
			{"id": 0, "addr": "a:1", "neighbors": [1]},
			{"id": 1, "addr": "b:1", "neighbors": [0]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Nodes) != 2 || cc.HeartbeatPeriod() != 50*time.Millisecond {
		t.Errorf("parsed %d nodes at period %v, want 2 at 50ms", len(cc.Nodes), cc.HeartbeatPeriod())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"too few nodes":      `{"nodes":[{"id":0,"addr":"a:1"}]}`,
		"bad k":              `{"k": 1.5, "nodes":[{"id":0,"addr":"a:1","neighbors":[1]},{"id":1,"addr":"b:1","neighbors":[0]}]}`,
		"negative heartbeat": `{"heartbeatMillis": -5, "nodes":[{"id":0,"addr":"a:1","neighbors":[1]},{"id":1,"addr":"b:1","neighbors":[0]}]}`,
		"sparse ids":         `{"nodes":[{"id":0,"addr":"a:1","neighbors":[5]},{"id":5,"addr":"b:1","neighbors":[0]}]}`,
		"duplicate ids":      `{"nodes":[{"id":0,"addr":"a:1","neighbors":[0]},{"id":0,"addr":"b:1","neighbors":[0]}]}`,
		"missing addr":       `{"nodes":[{"id":0,"neighbors":[1]},{"id":1,"addr":"b:1","neighbors":[0]}]}`,
		"asymmetric":         `{"nodes":[{"id":0,"addr":"a:1","neighbors":[1]},{"id":1,"addr":"b:1","neighbors":[]}]}`,
		"self loop":          `{"nodes":[{"id":0,"addr":"a:1","neighbors":[0,1]},{"id":1,"addr":"b:1","neighbors":[0]}]}`,
		"disconnected": `{"nodes":[
			{"id":0,"addr":"a:1","neighbors":[1]},{"id":1,"addr":"b:1","neighbors":[0]},
			{"id":2,"addr":"c:1","neighbors":[3]},{"id":3,"addr":"d:1","neighbors":[2]}
		]}`,
		"not json": `nope`,
	}
	for name, body := range cases {
		if _, err := LoadClusterConfig(writeConfig(t, body)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if _, err := LoadClusterConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunPrintExampleConfig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-print-example-config"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"nodes"`) {
		t.Errorf("example config missing:\n%s", out.String())
	}
}

func TestRunRequiresFlags(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing flags should fail")
	}
}

// TestTwoDaemonsEndToEnd boots two daemons on loopback, pipes a line into
// one, and expects the other to deliver it.
func TestTwoDaemonsEndToEnd(t *testing.T) {
	cfg := `{
		"heartbeatMillis": 20,
		"nodes": [
			{"id": 0, "addr": "127.0.0.1:17961", "neighbors": [1]},
			{"id": 1, "addr": "127.0.0.1:17962", "neighbors": [0]}
		]
	}`
	path := writeConfig(t, cfg)

	type result struct {
		out string
		err error
	}
	results := make(chan result, 2)

	// Each daemon runs in a goroutine with a held-open stdin pipe; daemon
	// 0 uses the -broadcast one-shot, daemon 1's output is polled for the
	// delivery, and a self-delivered SIGTERM shuts both down.
	stdin0, stdin0w := newPipe()
	stdin1, stdin1w := newPipe()
	var out0, out1 safeBuffer
	go func() {
		results <- result{err: run([]string{"-config", path, "-id", "1"}, stdin1, &out1)}
	}()
	// The one-shot goes out the moment daemon 0 is up, over a lossless
	// link with no retry: daemon 1 must be listening by then.
	deadline := time.After(10 * time.Second)
	for !strings.Contains(out1.String(), "up on") {
		select {
		case <-deadline:
			t.Fatalf("daemon 1 never came up; out1=%q", out1.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	go func() {
		results <- result{err: run([]string{
			"-config", path, "-id", "0",
			"-broadcast", "hello from daemon 0",
		}, stdin0, &out0)}
	}()

	for {
		if strings.Contains(out1.String(), "hello from daemon 0") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("daemon 1 never delivered; out0=%q out1=%q", out0.String(), out1.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Shut both down: closing stdin is not enough by design, send SIGTERM
	// to ourselves — both daemons listen for it.
	_ = stdin0w.Close()
	_ = stdin1w.Close()
	sigSelf(t)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Errorf("daemon exited with %v", r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}
