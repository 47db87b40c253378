#!/usr/bin/env python3
"""Peak-RSS gate: run a command, read its ru_maxrss, enforce a ceiling.

    python3 tests/check_peak_rss.py LIMIT_MB OUT.json -- CMD [ARGS...]

The command's stdout is discarded. OUT.json records the command, its
exit status and peak resident set size in MB. The exit status is
nonzero when the command fails or its peak exceeds LIMIT_MB.
"""

import json
import os
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    limit_mb = float(argv[0])
    out_path = argv[1]
    command = argv[3:]
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    with open(out_path, "w") as out:
        json.dump({"command": command, "exit_code": code,
                   "peak_rss_mb": round(peak_mb, 1),
                   "limit_mb": limit_mb}, out, indent=2)
        out.write("\n")
    print("peak RSS %.1f MB (limit %.0f MB), exit %d"
          % (peak_mb, limit_mb, code))
    if code != 0:
        return 1
    return 0 if peak_mb <= limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
