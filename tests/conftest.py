import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import helpers  # noqa: E402
from residuap import algebra, embed  # noqa: E402

# every wreath table the tests build is validated (see helpers.checked_wreath)
algebra.wreath = embed.wreath = helpers.checked_wreath
