"""Day-ahead weather-type forecast client and the night-charge decision.

The open-data service publishes one JSON document per region with a
per-day array; each entry carries a forecast date and an integer
weather-type code.  Codes flagged as likely-overcast trigger a night
battery charge so the ramp control has headroom the next day.  Fixture
files use the exact same JSON, enabling deterministic replay.
"""

from __future__ import annotations

import json
import logging
import urllib.parse
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path
from typing import Union

__all__ = [
    "WEATHER_TYPE_NAMES",
    "DEFAULT_CHARGE_IDS",
    "ForecastDay",
    "ChargeDecisionPolicy",
    "ForecastError",
    "parse_forecast_payload",
    "fetch_daily_forecast",
    "should_night_charge",
    "FixtureForecastSource",
    "LiveForecastSource",
]

log = logging.getLogger(__name__)

# Weather-type code -> description, as published by the provider.
WEATHER_TYPE_NAMES: dict[int, str] = {
    -99: "---",
    0: "No information",
    1: "Clear sky",
    2: "Partly cloudy",
    3: "Sunny intervals",
    4: "Cloudy",
    5: "Cloudy (High cloud)",
    6: "Showers",
    7: "Light showers",
    8: "Heavy showers",
    9: "Rain",
    10: "Light rain",
    11: "Heavy rain",
    12: "Intermittent rain",
    13: "Intermittent light rain",
    14: "Intermittent heavy rain",
    15: "Drizzle",
    16: "Mist",
    17: "Fog",
    18: "Snow",
    19: "Thunderstorms",
    20: "Showers and thunderstorms",
    21: "Hail",
    22: "Frost",
    23: "Rain and thunderstorms",
    24: "Convective clouds",
    25: "Partly cloudy",
    26: "Fog",
    27: "Cloudy",
}

# Codes that trigger the night charge: overcast skies promise heavy PV
# ramping the next day.  Codes 25-27 repeat earlier descriptions but are
# excluded here; override via ChargeDecisionPolicy if the provider uses
# them for your region.
DEFAULT_CHARGE_IDS: frozenset[int] = frozenset({4, 5, 14, 16, 17, 18})


class ForecastError(RuntimeError):
    """Raised when a forecast cannot be fetched or parsed."""


@dataclass(frozen=True)
class ForecastDay:
    """One day of weather-type forecast for one region."""

    date: Date
    weather_type_id: int
    region_id: int

    @property
    def known(self) -> bool:
        return self.weather_type_id in WEATHER_TYPE_NAMES

    @property
    def description(self) -> str:
        return WEATHER_TYPE_NAMES.get(self.weather_type_id, "unknown")


@dataclass(frozen=True)
class ChargeDecisionPolicy:
    """Which weather-type codes trigger a night charge.

    ``unknown_behavior`` decides for codes outside the published table:
    ``"no_charge"`` (default) or ``"charge"``.
    """

    charge_ids: frozenset[int] = DEFAULT_CHARGE_IDS
    unknown_behavior: str = "no_charge"

    def __post_init__(self) -> None:
        object.__setattr__(self, "charge_ids", frozenset(self.charge_ids))
        unknown = self.charge_ids - set(WEATHER_TYPE_NAMES)
        if unknown:
            raise ValueError(f"charge_ids contain unpublished codes: {sorted(unknown)}")
        if self.unknown_behavior not in ("no_charge", "charge"):
            raise ValueError(f"unknown_behavior must be 'no_charge' or 'charge', "
                             f"got {self.unknown_behavior!r}")


def should_night_charge(day: ForecastDay, policy: ChargeDecisionPolicy) -> bool:
    """Pure decision: charge tonight iff the day's code is in the charge set."""
    if not day.known:
        return policy.unknown_behavior == "charge"
    return day.weather_type_id in policy.charge_ids


def parse_forecast_payload(payload: Union[str, bytes], region_id: int,
                           date: Date) -> ForecastDay:
    """Extract the entry for ``date`` from a daily-forecast JSON document.

    Accepts either a bare array of day entries or an object with a
    ``data`` array; each entry needs ``forecastDate`` (YYYY-MM-DD) and
    ``idWeatherType`` fields.
    """
    try:
        doc = json.loads(payload)
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 or nesting
        raise ForecastError(f"malformed forecast JSON: {exc}") from None

    days = doc.get("data") if isinstance(doc, dict) else doc
    if not isinstance(days, list):
        raise ForecastError("forecast JSON carries no per-day array")

    wanted = date.isoformat()
    for entry in days:
        if not isinstance(entry, dict):
            continue
        if str(entry.get("forecastDate", ""))[:10] == wanted:
            try:
                weather_id = int(entry["idWeatherType"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ForecastError(f"entry for {wanted} lacks a usable "
                                    f"idWeatherType field") from None
            return ForecastDay(date=date, weather_type_id=weather_id,
                               region_id=region_id)
    raise ForecastError(f"no forecast entry for {wanted}")


def fetch_daily_forecast(region_id: int, endpoint_base: str, date: Date,
                         retries: int = 2, timeout_s: float = 10.0) -> ForecastDay:
    """GET ``<endpoint_base>/<region_id>.json`` and extract one day.

    A ``{region_id}`` placeholder in ``endpoint_base`` overrides the
    default path layout; only that literal text is replaced, other
    braces are kept as they are.  Retries transient failures (HTTP
    errors, unreachable hosts, timeouts, truncated bodies) up to
    ``retries`` extra attempts before raising; a body that arrives whole
    but does not parse is not retried.  Only http(s) endpoints are
    accepted.  The HTTP modules are imported here, on first use, so
    importing this module stays cheap for fixture replay.
    """
    import http.client
    import urllib.error
    import urllib.request

    if "{region_id}" in endpoint_base:
        url = endpoint_base.replace("{region_id}", str(region_id))
    else:
        url = f"{endpoint_base.rstrip('/')}/{region_id}.json"
    try:
        scheme = urllib.parse.urlsplit(url).scheme
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket
        raise ForecastError(f"malformed forecast endpoint {url!r}: {exc}") from None
    if scheme not in ("http", "https"):
        raise ForecastError(f"forecast endpoint must be http(s): {url!r}")
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        try:
            with urllib.request.urlopen(url, timeout=timeout_s) as response:
                body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # it holds the error response open
            last_error = exc
            log.warning("forecast fetch attempt %d/%d failed: %s",
                        attempt + 1, retries + 1, exc)
            continue
        return parse_forecast_payload(body, region_id, date)
    raise ForecastError(f"forecast unreachable after {retries + 1} attempts: "
                        f"{last_error}")


@dataclass(frozen=True)
class FixtureForecastSource:
    """Replays forecasts from a JSON file in the provider's wire format."""

    path: Path
    region_id: int = 0
    _payload: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", Path(self.path))
        object.__setattr__(self, "_payload", self.path.read_bytes())

    def forecast_for(self, date: Date) -> ForecastDay:
        return parse_forecast_payload(self._payload, self.region_id, date)


@dataclass(frozen=True)
class LiveForecastSource:
    """Fetches forecasts over HTTP; blocking, so keep it off the tick path."""

    endpoint_base: str
    region_id: int
    retries: int = 2
    timeout_s: float = 10.0

    def forecast_for(self, date: Date) -> ForecastDay:
        return fetch_daily_forecast(self.region_id, self.endpoint_base, date,
                                    retries=self.retries, timeout_s=self.timeout_s)
