// Package load executes a script against a running daemon: two closed-loop
// clients, one pre-opened keep-alive connection each, every request timed
// and checked.
package load

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// The request bodies and the one response test every driver of the HTTP API
// in this module shares (the load clients and the in-process HTTP replay).

// EstablishBody is the body of POST /v1/connections.
func EstablishBody(src, dst int32) []byte {
	return fmt.Appendf(nil, `{"src":%d,"dst":%d}`, src, dst)
}

// FaultBody is the body of POST /v1/faults/link; action is "fail" or
// "repair".
func FaultBody(link int32, action string) []byte {
	return fmt.Appendf(nil, `{"link":%d,"action":%q}`, link, action)
}

// Rejected reports whether a response is the daemon's clean admission
// refusal, as opposed to a conflict of another kind.
func Rejected(status int, body []byte) bool {
	return status == http.StatusConflict && bytes.Contains(body, []byte(`"rejected": true`))
}

// Quantile returns the exact q-th order statistic (nearest rank) of d,
// which it sorts in place. Empty input gives 0.
func Quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	return d[min(max(i, 0), len(d)-1)]
}

// Client is a minimal HTTP/1.1 client over one persistent connection. It
// runs entirely on the calling goroutine — no transport goroutines, pools
// or redirects — so a round trip's time is the daemon's plus one write and
// one read, and the bytes of each exchange can be counted exactly.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body bytes.Buffer

	sent, recv int64
}

// countingReader counts the bytes the buffered reader pulls off the socket.
type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func Dial(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, host: u.Host}
	c.br = bufio.NewReader(countingReader{conn, &c.recv})
	return c, nil
}

func (c *Client) Close() { c.conn.Close() }

// Do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *Client) Do(method, path string, body []byte) (int, []byte, error) {
	c.req = c.req[:0]
	c.req = append(c.req, method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	n, err := c.conn.Write(c.req)
	c.sent += int64(n)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}
