package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout bounds one request/response exchange; an exchange that
// exceeds it is a failed operation and ends the connection.
const requestTimeout = 10 * time.Second

// conn is one keep-alive HTTP/1.1 connection driven by exactly one
// goroutine. Requests are written as pre-built bytes — a head assembled
// into a reused buffer plus a body encoded during set-up — so the timed
// loops do no JSON work and the generator stays a small share of the CPU
// it has to split with the server.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	head []byte       // reused request-head buffer
	body bytes.Buffer // last response body
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// send writes one request: method and target (path plus query, already
// escaped), optional If-None-Match, optional body.
func (c *conn) send(method, target, ifNoneMatch string, body []byte) error {
	h := c.head[:0]
	h = append(h, method...)
	h = append(h, ' ')
	h = append(h, target...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	h = append(h, "\r\n"...)
	if ifNoneMatch != "" {
		h = append(h, "If-None-Match: "...)
		h = append(h, ifNoneMatch...)
		h = append(h, "\r\n"...)
	}
	if body != nil {
		h = append(h, "Content-Type: application/json\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	c.head = h
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	bufs := net.Buffers{h, body}
	_, err := bufs.WriteTo(c.c)
	return err
}

// recv reads one response. The body is left in c.body until the next recv;
// etag is the response's ETag header.
func (c *conn) recv(method string) (status int, etag string, err error) {
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		return 0, "", err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("Etag"), nil
}

// do is send followed by recv.
func (c *conn) do(method, target, ifNoneMatch string, body []byte) (int, string, error) {
	if err := c.send(method, target, ifNoneMatch, body); err != nil {
		return 0, "", err
	}
	return c.recv(method)
}

// openStream sends a GET whose response is a long-lived event stream and
// returns a reader over the de-chunked body; the caller reads frames from
// it until io.EOF, after which the connection is reusable. Reads carry no
// deadline beyond idle (the caller closes the connection to stop).
func (c *conn) openStream(target string) (io.ReadCloser, error) {
	if err := c.send("GET", target, "", nil); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, &http.Request{Method: "GET"})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", target, resp.StatusCode)
	}
	if err := c.c.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return resp.Body, nil
}
