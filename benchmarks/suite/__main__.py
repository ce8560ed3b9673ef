import sys

from benchmarks.suite.cli import main

sys.exit(main())
