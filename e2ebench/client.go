package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// conn is one generator connection holding one server session. Each conn
// has its own transport limited to one TCP connection.
type conn struct {
	base    string
	hc      *http.Client
	session string
	buf     bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// reply is a decoded /query response; Rows stays raw so later responses
// can be checked by hash without decoding them.
type reply struct {
	Session      string          `json:"session"`
	Node         string          `json:"node"`
	Rows         json.RawMessage `json:"rows"`
	RowsAffected int64           `json:"rows_affected"`
	Error        string          `json:"error"`
}

// outcome is one request's result as the generator saw it.
type outcome struct {
	sent, done time.Time
	status     int // HTTP status; 0 for a transport error
	bytes      int
	rep        reply
	err        error
}

// do sends one statement on the connection's session.
func (c *conn) do(req int64, sqlText string) outcome {
	c.buf.Reset()
	json.NewEncoder(&c.buf).Encode(struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}{c.session, sqlText})
	o := outcome{sent: time.Now()}
	hreq, err := http.NewRequest(http.MethodPost, c.base+"/query", bytes.NewReader(c.buf.Bytes()))
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := c.hc.Do(hreq)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status, o.bytes = resp.StatusCode, len(body)
	if err != nil {
		o.status, o.err = 0, err
		return o
	}
	if err := json.Unmarshal(body, &o.rep); err != nil {
		o.err = fmt.Errorf("status %d: undecodable reply: %w", resp.StatusCode, err)
		return o
	}
	if o.rep.Session != "" {
		c.session = o.rep.Session
	}
	if resp.StatusCode != http.StatusOK && o.rep.Error != "" {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, o.rep.Error)
	} else if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return o
}

// getJSON fetches a /bench endpoint into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getText fetches a text endpoint.
func getText(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
