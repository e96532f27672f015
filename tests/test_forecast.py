"""Tests for the forecast client, payload parsing and the charge decision."""

import json
import subprocess
import sys
import threading
import urllib.request
from datetime import date
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from pvems.fixtures import forecast_payload
from pvems.forecast import (DEFAULT_CHARGE_IDS, WEATHER_TYPE_NAMES,
                            ChargeDecisionPolicy, FixtureForecastSource,
                            ForecastDay, ForecastError, LiveForecastSource,
                            fetch_daily_forecast, parse_forecast_payload,
                            should_night_charge)

REGION = 1105800
TOMORROW = date(2018, 1, 2)


@pytest.fixture
def payload_bytes():
    doc = forecast_payload(REGION, date(2018, 1, 1), [1, 4, 9])
    return json.dumps(doc).encode()


class TestDecision:
    def test_cloudy_charges(self):
        day = ForecastDay(TOMORROW, 4, REGION)
        assert should_night_charge(day, ChargeDecisionPolicy())

    def test_clear_sky_does_not(self):
        day = ForecastDay(TOMORROW, 1, REGION)
        assert not should_night_charge(day, ChargeDecisionPolicy())

    def test_no_information_follows_default(self):
        day = ForecastDay(TOMORROW, 0, REGION)
        assert not should_night_charge(day, ChargeDecisionPolicy())

    def test_unknown_code_follows_policy(self):
        day = ForecastDay(TOMORROW, 99, REGION)
        assert not day.known
        assert not should_night_charge(day, ChargeDecisionPolicy())
        charging = ChargeDecisionPolicy(unknown_behavior="charge")
        assert should_night_charge(day, charging)

    def test_full_code_table(self):
        # every published code maps to a decision; exactly the default
        # charge set returns true
        assert len(WEATHER_TYPE_NAMES) == 29
        policy = ChargeDecisionPolicy()
        for code in WEATHER_TYPE_NAMES:
            decision = should_night_charge(ForecastDay(TOMORROW, code, REGION), policy)
            assert decision == (code in DEFAULT_CHARGE_IDS), f"code {code}"

    def test_policy_rejects_unpublished_ids(self):
        with pytest.raises(ValueError, match="unpublished"):
            ChargeDecisionPolicy(charge_ids=frozenset({4, 500}))

    def test_policy_rejects_bad_behavior(self):
        with pytest.raises(ValueError, match="unknown_behavior"):
            ChargeDecisionPolicy(unknown_behavior="maybe")

    def test_custom_charge_set(self):
        policy = ChargeDecisionPolicy(charge_ids=frozenset({27}))
        assert should_night_charge(ForecastDay(TOMORROW, 27, REGION), policy)
        assert not should_night_charge(ForecastDay(TOMORROW, 4, REGION), policy)


class TestParsing:
    def test_selects_requested_date(self, payload_bytes):
        day = parse_forecast_payload(payload_bytes, REGION, TOMORROW)
        assert day == ForecastDay(TOMORROW, 4, REGION)

    def test_bare_array_accepted(self):
        doc = [{"forecastDate": "2018-01-02", "idWeatherType": 16}]
        day = parse_forecast_payload(json.dumps(doc), REGION, TOMORROW)
        assert day.weather_type_id == 16

    def test_date_absent(self):
        doc = forecast_payload(REGION, date(2018, 3, 1), [4])
        with pytest.raises(ForecastError, match="2018-01-02"):
            parse_forecast_payload(json.dumps(doc), REGION, TOMORROW)

    def test_empty_array(self):
        with pytest.raises(ForecastError, match="no forecast entry"):
            parse_forecast_payload(json.dumps({"data": []}), REGION, TOMORROW)

    def test_malformed_json(self):
        with pytest.raises(ForecastError, match="malformed"):
            parse_forecast_payload(b"{not json", REGION, TOMORROW)

    def test_payload_not_utf8(self):
        with pytest.raises(ForecastError, match="malformed"):
            parse_forecast_payload(b'{"data": ["\xff"]}', REGION, TOMORROW)

    def test_payload_nested_too_deep(self):
        with pytest.raises(ForecastError, match="malformed"):
            parse_forecast_payload(b"[" * 100_000, REGION, TOMORROW)

    def test_infinite_weather_id(self):
        payload = b'[{"forecastDate": "2018-01-02", "idWeatherType": Infinity}]'
        with pytest.raises(ForecastError, match="idWeatherType"):
            parse_forecast_payload(payload, REGION, TOMORROW)

    def test_missing_weather_field(self):
        doc = {"data": [{"forecastDate": "2018-01-02"}]}
        with pytest.raises(ForecastError, match="idWeatherType"):
            parse_forecast_payload(json.dumps(doc), REGION, TOMORROW)

    def test_round_trip(self):
        # a payload synthesised from a ForecastDay parses back to it
        original = ForecastDay(TOMORROW, 17, REGION)
        doc = forecast_payload(REGION, original.date, [original.weather_type_id])
        assert parse_forecast_payload(json.dumps(doc), REGION, TOMORROW) == original


class _Handler(BaseHTTPRequestHandler):
    payload = b""
    failures_before_success = 0
    requests_seen = 0
    missing_bytes = 0  # Content-Length promises this many bytes more than sent
    last_path = None

    def do_GET(self):
        cls = type(self)
        cls.requests_seen += 1
        cls.last_path = self.path
        if cls.requests_seen <= cls.failures_before_success:
            self.send_response(500)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if cls.missing_bytes:
            self.send_header("Content-Length",
                             str(len(cls.payload) + cls.missing_bytes))
        self.end_headers()
        self.wfile.write(cls.payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # shutdown() waits for the serve loop's next poll
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    _Handler.missing_bytes = 0


class TestLiveClient:
    def test_live_and_fixture_agree(self, http_server, payload_bytes, tmp_path):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 0
        _Handler.requests_seen = 0
        endpoint = f"http://127.0.0.1:{http_server.server_port}"

        live = LiveForecastSource(endpoint, REGION).forecast_for(TOMORROW)

        fixture_path = tmp_path / "payload.json"
        fixture_path.write_bytes(payload_bytes)
        fixt = FixtureForecastSource(fixture_path, REGION).forecast_for(TOMORROW)

        assert live == fixt

    def test_retries_then_succeeds(self, http_server, payload_bytes):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 2
        _Handler.requests_seen = 0
        endpoint = f"http://127.0.0.1:{http_server.server_port}"
        day = fetch_daily_forecast(REGION, endpoint, TOMORROW, retries=2)
        assert day.weather_type_id == 4
        assert _Handler.requests_seen == 3

    def test_exhausted_retries_raise(self, http_server, payload_bytes):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 99
        _Handler.requests_seen = 0
        endpoint = f"http://127.0.0.1:{http_server.server_port}"
        with pytest.raises(ForecastError, match="3 attempts"):
            fetch_daily_forecast(REGION, endpoint, TOMORROW, retries=2)
        assert _Handler.requests_seen == 3

    def test_unreachable_endpoint(self):
        with pytest.raises(ForecastError, match="attempts"):
            fetch_daily_forecast(REGION, "http://127.0.0.1:9", TOMORROW,
                                 retries=1, timeout_s=0.5)

    def test_path_template_placeholder(self, http_server, payload_bytes):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 0
        _Handler.requests_seen = 0
        endpoint = (f"http://127.0.0.1:{http_server.server_port}"
                    "/daily/{region_id}.json")
        day = fetch_daily_forecast(REGION, endpoint, TOMORROW)
        assert day.weather_type_id == 4

    def test_only_the_region_placeholder_is_filled(self, http_server,
                                                   payload_bytes):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 0
        _Handler.requests_seen = 0
        endpoint = (f"http://127.0.0.1:{http_server.server_port}"
                    "/{region_id}/{x}.json")
        day = fetch_daily_forecast(REGION, endpoint, TOMORROW)
        assert day.weather_type_id == 4
        assert _Handler.last_path == f"/{REGION}/{{x}}.json"

    def test_truncated_body_is_retried(self, http_server, payload_bytes):
        _Handler.payload = payload_bytes
        _Handler.failures_before_success = 0
        _Handler.requests_seen = 0
        _Handler.missing_bytes = 10
        endpoint = f"http://127.0.0.1:{http_server.server_port}"
        with pytest.raises(ForecastError, match="3 attempts"):
            fetch_daily_forecast(REGION, endpoint, TOMORROW, retries=2)
        assert _Handler.requests_seen == 3

    def test_unparsable_body_is_not_retried(self, http_server):
        _Handler.payload = b"not json"
        _Handler.failures_before_success = 0
        _Handler.requests_seen = 0
        endpoint = f"http://127.0.0.1:{http_server.server_port}"
        with pytest.raises(ForecastError, match="malformed"):
            fetch_daily_forecast(REGION, endpoint, TOMORROW, retries=2)
        assert _Handler.requests_seen == 1

    def test_file_endpoint_is_refused(self, tmp_path, payload_bytes,
                                      monkeypatch):
        # urlopen would read this file
        (tmp_path / f"{REGION}.json").write_bytes(payload_bytes)

        def never(*args, **kwargs):
            raise AssertionError("endpoint opened")

        monkeypatch.setattr(urllib.request, "urlopen", never)
        with pytest.raises(ForecastError, match="http"):
            fetch_daily_forecast(REGION, tmp_path.as_uri(), TOMORROW)

    def test_malformed_endpoint_raises_forecast_error(self):
        with pytest.raises(ForecastError, match="malformed"):
            fetch_daily_forecast(REGION, "http://[::1", TOMORROW)


def test_cli_import_leaves_requests_unloaded():
    # nor the HTTP modules, which only the live client imports, on use
    modules = ["requests", "urllib.request", "http.client", "ssl"]
    code = ("import sys, pvems.cli; "
            f"loaded = [m for m in {modules!r} if m in sys.modules]; "
            "sys.exit(f'loaded: {loaded}' if loaded else 0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
