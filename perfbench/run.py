#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). The run prints one metadata
line (host fingerprint, toolchain, source revision), the benchmark's own run
line, and, last, the result object. The same lines are appended to
perfbench-results.jsonl in the target directory. Exits non-zero without a
result when the repository sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("learn_table3", "atpg_table5", "serve_mixed", "ingest_scale")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest():
    """SHA-256 over the repository's Rust sources and manifests, so results
    from a checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "src", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "fixtures"))
            for name in filenames:
                if name.endswith((".rs", ".toml")):
                    paths.append(os.path.join(dirpath, name))
    paths += [os.path.join(ROOT, "Cargo.toml")]
    for path in sorted(paths):
        rel = os.path.relpath(path, ROOT)
        h.update(rel.encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def metadata(args, target):
    return {
        "host": {
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "kernel": platform.release(),
        },
        "rustc": command_output(["rustc", "-V"]),
        # Only this checkout's own history: git would otherwise search the
        # parent directories for a repository.
        "git_commit": (command_output(["git", "rev-parse", "HEAD"])
                       if os.path.exists(os.path.join(ROOT, ".git")) else None),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": [1, 2],
        "target_dir": os.path.relpath(target, ROOT),
    }


def main():
    parser = argparse.ArgumentParser(description="Run the seqlearn benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--expect-digest", help="override the pinned output digest (hex)")
    args = parser.parse_args()

    for required in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"repository sources not found ({required} missing next to perfbench/)", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work", args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    meta = metadata(args, target)

    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    out_lines = [json.dumps({"meta": meta})] + lines
    with open(os.path.join(target, "perfbench-results.jsonl"), "a") as f:
        f.write("\n".join(out_lines) + "\n")
    print("\n".join(out_lines), flush=True)


if __name__ == "__main__":
    main()
