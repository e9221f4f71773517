"""Campaign-facing observability adapters.

Everything here derives strictly from read-only campaign state (the
journal and the status dict) — same contract as ``campaign serve``:
no simulator imports, never writes a byte into the campaign directory.

``journal_timeline``   per-trial timeline rows (start/end/host/status)
                       reconstructed from journal ``trial``/``lease``
                       events, plus a per-host rollup — the data model
                       behind the dashboard's timeline explorer.
``status_metrics``     render the ``campaign_status`` dict as
                       Prometheus gauges for the ``/metrics`` route.
``dashboard_html``     the single-file ``--dashboard`` page: inline
                       CSS/JS, polls ``/status`` + ``/timeline``, no
                       external assets.
"""

from __future__ import annotations

from typing import Dict


def journal_timeline(directory, limit: int = 500) -> Dict:
    """Reconstruct per-trial timeline rows from the journal.

    ``trial`` events carry the wall-clock completion ``time`` and the
    compute ``elapsed``, so each computed trial becomes a
    ``[time - elapsed, time]`` bar; cached trials are zero-width
    markers.  ``lease`` events attribute bars to hosts (``local-<n>``
    for a local run's worker processes).  Only the most
    recent ``limit`` trials are returned (the page stays light on
    100k-trial campaigns) — ``truncated`` reports how many were cut.
    """
    from ..campaign.journal import CampaignDir

    cdir = CampaignDir(directory)
    manifest = cdir.read_manifest()
    trials: Dict = {}
    lease_host: Dict = {}
    active: Dict = {}
    hosts: Dict[str, Dict] = {}
    retries: Dict = {}
    runs = 0

    def host_row(name: str) -> Dict:
        row = hosts.get(name)
        if row is None:
            row = hosts[name] = {"done": 0, "active_leases": 0,
                                 "last_seen": None}
        return row

    for event in cdir.events():
        kind = event.get("event")
        stamp = event.get("time")
        key = (event.get("sweep"), event.get("index"))
        if kind == "start":
            runs += 1
        elif kind == "lease":
            lease_host[key] = event.get("host")
            active[key] = event.get("host")
            row = host_row(event.get("host") or "?")
            row["last_seen"] = stamp
        elif kind == "retry":
            retries[key] = event.get("attempt", 0)
        elif kind == "trial":
            elapsed = float(event.get("elapsed") or 0.0)
            host = event.get("host") or lease_host.get(key)
            trials[key] = {
                "sweep": key[0], "index": key[1],
                "status": event.get("status"),
                "run": event.get("run"),
                "retries": event.get("retries",
                                     retries.get(key, 0)),
                "host": host,
                "end": stamp,
                "start": (stamp - elapsed) if stamp else None,
                "elapsed": elapsed,
            }
            active.pop(key, None)
            if host:
                row = host_row(host)
                row["done"] += 1
                row["last_seen"] = stamp

    for host in active.values():
        if host:
            host_row(host)["active_leases"] += 1

    rows = sorted(trials.values(),
                  key=lambda row: (row["end"] or 0.0,
                                   row["sweep"], row["index"]))
    truncated = max(0, len(rows) - limit)
    rows = rows[truncated:]
    stamps = ([row["start"] for row in rows if row["start"]] +
              [row["end"] for row in rows if row["end"]])
    return {
        "campaign": manifest.get("name"),
        "total_trials": manifest.get("total_trials"),
        "runs": runs,
        "t0": min(stamps) if stamps else None,
        "t1": max(stamps) if stamps else None,
        "trials": rows,
        "hosts": hosts,
        "truncated": truncated,
    }


#: (name, help, field) of every journal-derived gauge; the fields are
#: those of ``campaign_status`` after ``status_metrics`` flattens it.
_STATUS_GAUGES = (
    ("repro_campaign_trials_total", "Trials in the campaign manifest",
     "total_trials"),
    ("repro_campaign_trials_completed", "Trials done or cache-served",
     "completed"),
    ("repro_campaign_trials_computed", "Trials computed by workers",
     "computed"),
    ("repro_campaign_trials_cached", "Trials served from the result cache",
     "cached"),
    ("repro_campaign_progress_ratio", "completed / total", "progress"),
    ("repro_campaign_cache_hit_ratio", "cached / completed",
     "cache_hit_rate"),
    ("repro_campaign_runs_total",
     "Journalled engine runs (resumes included)", "runs"),
    ("repro_campaign_errors", "Journalled error events", "errors"),
    ("repro_campaign_finished", "1 once every sweep is sealed",
     "finished"),
    ("repro_campaign_hosts", "Distinct hosts in journalled leases",
     "hosts"),
    ("repro_campaign_leases_issued", "Journalled lease events",
     "leases_issued"),
    ("repro_campaign_retries", "Journalled retry events", "retries"),
    ("repro_campaign_trials_retried", "Trials retried at least once",
     "trials_retried"),
    ("repro_campaign_trials_per_second", "Recent completion rate",
     "trials_per_second"),
    ("repro_campaign_eta_seconds", "Remaining / recent rate",
     "eta_seconds"),
)
def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def status_metrics(status: Dict) -> str:
    """Render the status dict as Prometheus gauges, sorted by name.

    Every gauge derives from the journal, so it is correct in a
    process that computes nothing and survives a restart.  A ``None``
    figure (a rate that is not yet estimable) is left out."""
    figures = dict(status,
                   errors=len(status.get("errors") or ()),
                   finished=int(status.get("state") == "finished"),
                   hosts=len(status.get("hosts") or ()),
                   leases_issued=(status.get("leases") or {}).get("issued"))
    gauges = [(name, text, figures.get(field))
              for name, text, field in _STATUS_GAUGES]
    lines = []
    for name, text, value in sorted(gauges):
        if value is not None:
            lines += [f"# HELP {name} {text}", f"# TYPE {name} gauge",
                      f"{name} {_format(value)}"]
    return "\n".join(lines) + "\n"


def dashboard_html(title: str = "repro campaign") -> str:
    """The ``--dashboard`` page.  All data arrives via JSON polling;
    the page itself is static, so the server renders it once."""
    # One literal with doubled braces for CSS/JS; only the title is
    # interpolated (and it is operator-supplied, not campaign data —
    # campaign data reaches the DOM via textContent only).
    return _DASHBOARD_TEMPLATE.replace("__TITLE__", title)


_DASHBOARD_TEMPLATE = """<!doctype html>
<html><head><meta charset="utf-8">
<title>__TITLE__</title>
<style>
:root { --ink:#1a1a2e; --dim:#667; --line:#d8dce4; --bg:#f7f8fa;
        --done:#2a6f97; --cached:#9aa3b2; --failed:#c1443c;
        --lease:#f4a259; }
body { font:14px/1.5 system-ui,sans-serif; margin:0; color:var(--ink);
       background:var(--bg); }
header { background:#fff; border-bottom:1px solid var(--line);
         padding:.7rem 1.2rem; display:flex; align-items:baseline;
         gap:1rem; }
h1 { font-size:1.05rem; margin:0; }
#state { font-size:.8rem; padding:.1rem .55rem; border-radius:.8rem;
         background:var(--cached); color:#fff; }
#state.finished { background:var(--done); }
#state.in-progress { background:var(--lease); }
main { padding:1rem 1.2rem; max-width:70rem; margin:0 auto; }
section { background:#fff; border:1px solid var(--line);
          border-radius:.4rem; padding: .8rem 1rem; margin:0 0 1rem; }
h2 { font-size:.82rem; margin:0 0 .5rem; text-transform:uppercase;
     letter-spacing:.06em; color:var(--dim); }
#bar { height:14px; background:var(--bg); border-radius:7px;
       overflow:hidden; border:1px solid var(--line); }
#bar>div { height:100%; background:var(--done); width:0; }
.cards { display:flex; flex-wrap:wrap; gap:1.6rem; margin-top:.6rem; }
.cards b { display:block; font-size:1.15rem; }
.cards span { color:var(--dim); font-size:.78rem; }
table { border-collapse:collapse; width:100%; font-size:.85rem; }
th,td { text-align:left; padding:.2rem .6rem .2rem 0;
        border-bottom:1px solid var(--line); }
th { color:var(--dim); font-weight:600; }
#tl { position:relative; height:300px; overflow-y:auto;
      border:1px solid var(--line); border-radius:.3rem; }
.row { position:relative; height:14px; }
.trial { position:absolute; height:10px; top:2px; border-radius:2px;
         min-width:3px; background:var(--done); }
.trial.cached { background:var(--cached); }
.trial.failed { background:var(--failed); }
.legend { color:var(--dim); font-size:.78rem; margin-top:.4rem; }
.swatch { display:inline-block; width:.7em; height:.7em;
          border-radius:2px; margin:0 .25em 0 .9em;
          vertical-align:baseline; }
#err { color:var(--failed); white-space:pre-wrap; }
footer { color:var(--dim); font-size:.75rem; padding:0 1.2rem 1rem;
         max-width:70rem; margin:0 auto; }
</style></head><body>
<header><h1 id="name">__TITLE__</h1><span id="state">loading</span>
</header>
<main>
<section><h2>Progress</h2>
  <div id="bar"><div></div></div>
  <div class="cards">
    <div><b id="done">&ndash;</b><span>trials done</span></div>
    <div><b id="computed">&ndash;</b><span>computed</span></div>
    <div><b id="cached">&ndash;</b><span>cache-served</span></div>
    <div><b id="rate">&ndash;</b><span>trials / s</span></div>
    <div><b id="eta">&ndash;</b><span>ETA</span></div>
    <div><b id="runs">&ndash;</b><span>engine runs</span></div>
  </div>
  <p id="err"></p>
</section>
<section id="hostbox" hidden><h2>Hosts</h2>
  <table><thead><tr><th>host</th><th>trials done</th>
  <th>active leases</th><th>last seen</th></tr>
  </thead><tbody id="hosts"></tbody></table>
</section>
<section><h2>Trial timeline</h2>
  <div id="tl"></div>
  <div class="legend" id="tlnote">
    <span class="swatch" style="background:var(--done)"></span>computed
    <span class="swatch" style="background:var(--cached)"></span>cached
    <span class="swatch" style="background:var(--failed)"></span>failed
  </div>
</section>
</main>
<footer>repro campaign dashboard &middot; refreshes every 2&nbsp;s
&middot; JSON: <code>/status</code>, <code>/timeline</code>,
<code>/metrics</code></footer>
<script>
"use strict";
const $ = id => document.getElementById(id);
const fmt = (v, d=1) => v == null ? "\\u2013" : (+v).toFixed(d);
function fmtEta(s) {
  if (s == null) return "\\u2013";
  if (s < 90) return Math.round(s) + " s";
  if (s < 5400) return (s / 60).toFixed(1) + " min";
  return (s / 3600).toFixed(1) + " h";
}
async function getJSON(path) {
  const res = await fetch(path, {cache: "no-store"});
  if (!res.ok) throw new Error(path + " \\u2192 " + res.status);
  return res.json();
}
function renderStatus(st) {
  $("name").textContent = st.name || "campaign";
  const badge = $("state");
  badge.textContent = st.state;
  badge.className = st.state === "finished" ? "finished"
                    : (st.state === "in-progress" ? "in-progress" : "");
  $("bar").firstElementChild.style.width =
      Math.round(100 * (st.progress || 0)) + "%";
  $("done").textContent = st.completed + " / " + st.total_trials;
  $("computed").textContent = st.computed;
  $("cached").textContent = st.cached;
  $("rate").textContent = fmt(st.trials_per_second, 2);
  $("eta").textContent = st.state === "finished" ? "done"
                                                 : fmtEta(st.eta_seconds);
  $("runs").textContent = st.runs;
  $("err").textContent = (st.errors || []).join("\\n");
}
function renderHosts(hosts) {
  const names = Object.keys(hosts || {});
  $("hostbox").hidden = names.length === 0;
  const body = $("hosts");
  body.replaceChildren();
  for (const name of names.sort()) {
    const h = hosts[name], tr = document.createElement("tr");
    const age = h.last_seen
        ? fmt(Date.now() / 1000 - h.last_seen, 0) + " s ago" : "\\u2013";
    for (const cell of [name, h.done, h.active_leases, age]) {
      const td = document.createElement("td");
      td.textContent = cell;
      tr.appendChild(td);
    }
    body.appendChild(tr);
  }
}
function renderTimeline(tl) {
  const box = $("tl");
  box.replaceChildren();
  const t0 = tl.t0, t1 = Math.max(tl.t1 || 0, t0 + 1e-3);
  const scale = 100 / (t1 - t0);
  for (const trial of tl.trials.slice().reverse()) {
    const row = document.createElement("div");
    row.className = "row";
    const bar = document.createElement("div");
    bar.className = "trial " + (trial.status || "");
    const left = ((trial.start || trial.end || t0) - t0) * scale;
    bar.style.left = Math.max(0, left) + "%";
    bar.style.width = Math.max(0.4, (trial.elapsed || 0) * scale) + "%";
    bar.title = trial.sweep + "[" + trial.index + "] " + trial.status +
        (trial.host ? " @" + trial.host : "") +
        " \\u2014 " + fmt(trial.elapsed, 3) + " s" +
        (trial.retries ? " (" + trial.retries + " retries)" : "");
    row.appendChild(bar);
    box.appendChild(row);
  }
  if (tl.truncated) {
    const note = document.createElement("div");
    note.textContent = "\\u2026 " + tl.truncated +
        " earlier trials not shown";
    note.className = "legend";
    box.appendChild(note);
  }
}
async function tick() {
  try {
    const st = await getJSON("/status");
    renderStatus(st);
    const tl = await getJSON("/timeline");
    renderHosts(tl.hosts);
    renderTimeline(tl);
  } catch (err) {
    $("err").textContent = String(err);
  }
}
tick();
setInterval(tick, 2000);
</script>
</body></html>
"""
