// Remote mode: with -server the CLI stops computing locally and
// becomes a client of a running unschedd daemon, exercising the same
// public wire surface any other client would use — JSON by default,
// the compact binary envelope with -binary, and the NDJSON batch
// stream with -batch. The pattern travels as the canonical string of
// its workload spec (the daemon rebuilds it deterministically from the
// request's content hash) and as explicit triples when -load gave us
// a concrete matrix.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"text/tabwriter"

	"unsched"
)

// runRemote drives the daemon at base with req once per algorithm (or
// once for all of them with -batch) and prints the same comparison
// table the local mode does, minus simulated times: the daemon's
// schedule endpoint reports structure, not the iPSC model run.
func runRemote(stdout io.Writer, base string, algs []string, req unsched.ScheduleRequest, binary, batch bool) error {
	base = strings.TrimRight(base, "/")
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tchosen\tphases\tops\tlink-free\tcached\tkey")
	var err error
	if batch {
		err = remoteBatch(tw, base, algs, req)
	} else {
		for _, alg := range algs {
			one := req
			one.Algorithm = alg
			if err = remoteOne(tw, base, one, binary); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	return tw.Flush()
}

func printResultRow(tw io.Writer, alg string, key string, cached bool, res *unsched.ScheduleResult) {
	phases, ops := 0, int64(0)
	if res.Schedule != nil {
		phases = len(res.Schedule.Phases)
		ops = res.Schedule.Ops
	}
	linkFree := "no"
	if res.LinkFree {
		linkFree = "yes"
	}
	fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%v\t%.12s\n",
		alg, res.Chosen, phases, ops, linkFree, cached, key)
}

// remoteOne runs one algorithm through POST /v1/schedule, negotiating
// the binary envelope when asked and decoding whichever form came
// back.
func remoteOne(tw io.Writer, base string, req unsched.ScheduleRequest, binary bool) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", unsched.ContentTypeJSON)
	if binary {
		hreq.Header.Set("Accept", unsched.ContentTypeBinary)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp.StatusCode, raw)
	}
	if binary && resp.Header.Get("Content-Type") == unsched.ContentTypeBinary {
		dec, err := unsched.DecodeBinaryResponse(raw)
		if err != nil {
			return fmt.Errorf("bad binary response: %w", err)
		}
		if dec.Schedule == nil {
			return fmt.Errorf("binary response carries no schedule")
		}
		printResultRow(tw, req.Algorithm, dec.Key, dec.Cached, dec.Schedule)
		return nil
	}
	var env unsched.ResponseEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("bad response envelope: %w", err)
	}
	var res unsched.ScheduleResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Errorf("bad schedule result: %w", err)
	}
	printResultRow(tw, req.Algorithm, env.Key, env.Cached, &res)
	return nil
}

// remoteBatch submits every algorithm as one POST /v1/schedule/batch
// and prints rows in arrival order as the NDJSON stream delivers them.
func remoteBatch(tw io.Writer, base string, algs []string, req unsched.ScheduleRequest) error {
	batch := unsched.BatchScheduleRequest{Requests: make([]unsched.ScheduleRequest, len(algs))}
	for i, alg := range algs {
		one := req
		one.Algorithm = alg
		batch.Requests[i] = one
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/schedule/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", unsched.ContentTypeJSON)
	hreq.Header.Set("Accept", unsched.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return remoteError(resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item unsched.BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("bad batch line: %w", err)
		}
		if item.Index < 0 || item.Index >= len(algs) {
			return fmt.Errorf("batch item index %d out of range", item.Index)
		}
		alg := algs[item.Index]
		if item.Error != nil {
			fmt.Fprintf(tw, "%s\t[%s] %s\t-\t-\t-\t-\t-\n", alg, item.Error.Code, item.Error.Message)
			continue
		}
		var res unsched.ScheduleResult
		if err := json.Unmarshal(item.Result, &res); err != nil {
			return fmt.Errorf("bad batch result for %s: %w", alg, err)
		}
		printResultRow(tw, alg, item.Key, item.Cached, &res)
	}
	return sc.Err()
}

// remoteError turns a non-2xx body into a readable error, preferring
// the versioned {code, message} detail when the daemon sent one.
func remoteError(status int, raw []byte) error {
	var env unsched.ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Err.Code != "" {
		return fmt.Errorf("server: %d [%s] %s", status, env.Err.Code, env.Err.Message)
	}
	msg := strings.TrimSpace(string(raw))
	if len(msg) > 200 {
		msg = msg[:200] + "..."
	}
	return fmt.Errorf("server: %d %s", status, msg)
}
