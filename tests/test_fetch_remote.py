from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from seqcast.market_data import NetworkError, fetch_remote, parse_csv

CSV_BODY = "\n".join(
    [
        "Date,Open,High,Low,Close,Adj Close,Volume",
        "2020-01-02,1,2,0.5,1.5,1.4,100",
        "2020-01-03,1.5,2.5,1,2,1.9,200",
        "2020-01-06,2,3,1.5,2.5,2.4,300",
    ]
)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path.startswith("/csv/"):
            body = CSV_BODY.encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/empty/"):
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def test_fetch_passes_body_through(server):
    template = server + "/csv/{symbol}?start={start}&end={end}"
    body = fetch_remote(template, "VNQ", "2020-01-01", "2020-02-01")
    assert body == CSV_BODY
    assert len(parse_csv(body, "VNQ")) == 3


def test_fetch_404_raises_status(server):
    template = server + "/missing/{symbol}/{start}/{end}"
    with pytest.raises(NetworkError, match="^unexpected HTTP status 404$"):
        fetch_remote(template, "VNQ", "2020-01-01", "2020-02-01")


def test_fetch_empty_body(server):
    template = server + "/empty/{symbol}/{start}/{end}"
    with pytest.raises(NetworkError, match="^empty body from "):
        fetch_remote(template, "VNQ", "2020-01-01", "2020-02-01")


def test_fetch_connection_failure_wraps_as_network_error():
    # nothing listens on this port
    template = "http://127.0.0.1:9/{symbol}/{start}/{end}"
    with pytest.raises(NetworkError):
        fetch_remote(template, "VNQ", "2020-01-01", "2020-02-01")


def test_fetch_rejects_incomplete_template():
    with pytest.raises(ValueError):
        fetch_remote("http://example.com/{symbol}", "VNQ", "2020-01-01", "2020-02-01")


def test_fetch_refuses_file_url(tmp_path):
    # the file exists, so only the scheme check stands between it and the caller
    (tmp_path / "VNQ-2020-01-01-2020-02-01.csv").write_text(CSV_BODY)
    template = tmp_path.as_uri() + "/{symbol}-{start}-{end}.csv"
    with pytest.raises(NetworkError):
        fetch_remote(template, "VNQ", "2020-01-01", "2020-02-01")
