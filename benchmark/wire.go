package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to cfqd, speaking just enough
// of the protocol for POST with a JSON body. hot-repeat answers ~2000
// requests a second with ~64 KB each; net/http's client spent a quarter of
// the machine on them, which would make the generator part of what is
// measured. This client reads a response it does not keep straight out of
// its buffer and allocates nothing per request.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	out  bytes.Buffer
}

const requestTimeout = 60 * time.Second

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// post sends body to path and reads the response to its end; the response
// body is returned only when keep is set. Any error closes the connection,
// and the next call dials a new one.
func (c *conn) post(path string, body []byte, keep bool) (status int, kept []byte, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.addr, requestTimeout); err != nil {
			c.c = nil
			return 0, nil, err
		}
		c.br = bufio.NewReaderSize(c.c, 128<<10)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err = c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.out.Reset()
	fmt.Fprintf(&c.out, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, c.addr, len(body))
	c.out.Write(body)
	if _, err = c.c.Write(c.out.Bytes()); err != nil {
		return 0, nil, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := int64(-1), false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(value), 10, 64); err != nil {
				return 0, nil, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	var sink *bytes.Buffer
	if keep {
		sink = &bytes.Buffer{}
	}
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			size, perr := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
			if perr != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				// No trailers are sent; the last chunk is followed by CRLF.
				_, err = c.br.Discard(2)
				break
			}
			if err = c.take(size, sink); err != nil {
				return 0, nil, err
			}
			if _, err = c.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		err = c.take(length, sink)
	default:
		err = fmt.Errorf("response without Content-Length or chunked encoding")
	}
	if err != nil {
		return 0, nil, err
	}
	if keep {
		kept = sink.Bytes()
	}
	return status, kept, nil
}

// take consumes n body bytes, into sink when one is given.
func (c *conn) take(n int64, sink *bytes.Buffer) error {
	if sink != nil {
		_, err := io.CopyN(sink, c.br, n)
		return err
	}
	_, err := c.br.Discard(int(n))
	return err
}
