import sys

from .bench import main

sys.exit(main())
